// Command rheem-bench regenerates the paper's evaluation: every figure of
// Sections 2 and 6 plus Table 1 and the design-choice ablations, printed as
// aligned text tables (system, configuration, measured runtime).
//
// Usage:
//
//	rheem-bench                 # run everything (several minutes)
//	rheem-bench -experiment fig2a,fig9b
//	rheem-bench -scale 0.25     # shrink inputs for a quick pass
//	rheem-bench -json out.json  # also emit machine-readable rows
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"rheem/internal/experiments"
)

// jsonRow is the machine-readable form of one measurement, written by -json.
// Keeping a flat schema (one object per row) makes the output trivially
// diffable against a recorded baseline such as BENCH_seed.json.
type jsonRow struct {
	Experiment string `json:"experiment"`
	Config     string `json:"config"`
	System     string `json:"system"`
	// RuntimeMs is null for rows with no runtime (qualitative rows such as
	// the learned-cost choice comparison, which the text table renders as X).
	RuntimeMs *float64 `json:"runtime_ms"`
	Note      string   `json:"note,omitempty"`
}

type experiment struct {
	name string
	desc string
	run  func(experiments.Options) ([]experiments.Row, error)
}

var all = []experiment{
	{"fig2a", "platform independence: data cleaning (DC@Rheem vs NADEEF vs SparkSQL)", experiments.Fig2a},
	{"fig2b", "opportunistic: SGD (ML@Rheem vs MLlib vs SystemML)", experiments.Fig2b},
	{"fig2c", "mandatory: cross-community PageRank out of the store vs ideal", experiments.Fig2c},
	{"fig2d", "polystore: TPC-H Q5 in place vs consolidate-first", experiments.Fig2d},
	{"fig9a", "platform independence sweep: WordCount", experiments.Fig9a},
	{"fig9b", "platform independence sweep: SGD", experiments.Fig9b},
	{"fig9c", "platform independence sweep: CrocoPR", experiments.Fig9c},
	{"fig9d", "opportunistic sweep: WordCount result fraction", experiments.Fig9d},
	{"fig9e", "opportunistic sweep: SGD batch size", experiments.Fig9e},
	{"fig9f", "opportunistic sweep: CrocoPR iterations", experiments.Fig9f},
	{"fig10a", "hidden opportunity: the Join subquery", experiments.Fig10a},
	{"fig10b", "progressive optimization on/off", experiments.Fig10b},
	{"fig10c", "exploratory mode on/off", experiments.Fig10c},
	{"fig11", "Rheem vs Musketeer: CrocoPR", experiments.Fig11},
	{"codec", "wire format: tagged JSON vs binary quantum codec", experiments.Codec},
	{"columnar", "columnar data plane: vectorized column kernels vs fused row path", experiments.Columnar},
	{"distexec", "distributed stage execution: local vs loopback-peer dispatch", experiments.Distexec},
	{"abl-prune", "ablation: lossless pruning vs exhaustive enumeration", experiments.AblationPruning},
	{"abl-move", "ablation: conversion tree vs naive per-path movement", experiments.AblationMovement},
	{"abl-learn", "ablation: learned vs default cost model", experiments.AblationLearnedCosts},
}

func main() {
	which := flag.String("experiment", "", "comma-separated experiment ids (default: all); see -list")
	list := flag.Bool("list", false, "list experiment ids")
	scale := flag.Float64("scale", 1, "input size multiplier")
	seed := flag.Int64("seed", 0, "data generation seed (0 = default)")
	jsonOut := flag.String("json", "", "also write results as a JSON array to this file")
	flag.Parse()

	if *list {
		for _, e := range all {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		fmt.Printf("%-10s %s\n", "table1", "Table 1: tasks and datasets")
		return
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed}
	selected := map[string]bool{}
	for _, n := range strings.Split(*which, ",") {
		if n = strings.TrimSpace(n); n != "" {
			selected[n] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	if want("table1") {
		t1, err := experiments.Table1(opts)
		if err != nil {
			fatal("table1", err)
		}
		fmt.Println(t1)
	}
	var collected []jsonRow
	for _, e := range all {
		if !want(e.name) {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
		rows, err := e.run(opts)
		if err != nil {
			fatal(e.name, err)
		}
		fmt.Println(experiments.RenderTable(rows))
		for _, r := range rows {
			row := jsonRow{Experiment: e.name, Config: r.Config, System: r.System, Note: r.Note}
			if !math.IsNaN(r.Ms) && !math.IsInf(r.Ms, 0) && r.Ms >= 0 {
				ms := r.Ms
				row.RuntimeMs = &ms
			}
			collected = append(collected, row)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			fatal("json", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal("json", err)
		}
		fmt.Fprintf(os.Stderr, "rheem-bench: wrote %d rows to %s\n", len(collected), *jsonOut)
	}
}

func fatal(name string, err error) {
	fmt.Fprintf(os.Stderr, "rheem-bench: %s: %v\n", name, err)
	os.Exit(1)
}
