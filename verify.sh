#!/bin/sh
# Repo verification gate: formatting, vet, build, and the race-enabled
# test suite.
#
#	./verify.sh         # full gate (several minutes: experiment suites)
#	./verify.sh -short  # skip the multi-second experiment regenerations
set -e
short=""
for arg in "$@"; do
	case "$arg" in
	-short) short="-short" ;;
	*)
		echo "usage: $0 [-short]" >&2
		exit 2
		;;
	esac
done
set -x
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" "$unformatted" >&2
	exit 1
fi
go vet ./...
go build ./...
go test -race $short ./...
# Benchmark smoke: one iteration of the codec benchmarks, so they compile
# and run even when nobody records numbers.
go test -run=NONE -bench=BenchmarkEncodeQuantum -benchtime=1x ./internal/core
# Fusion smoke: one iteration of the fused narrow-chain benchmarks and of
# the columnar agg-chain benchmark (the vectorized grouped-aggregation
# kernel and its row twin both execute), plus the crosschecks of the fused
# narrow-operator executor against the plain-Go plan interpreter (random
# plans and the Figure-9 pipeline, pinned to streams, spark and flink and
# under optimizer choice).
go test -run=NONE -bench='NarrowChain|ColumnarAggChain' -benchtime=1x ./internal/platform/spark ./internal/platform/flink
go test -count=1 -run='TestCrossCheckFusedAgainstUnfused|TestFusedFig9' .
# Columnar smoke: the columnar-vs-row differential crosschecks (random
# declarative plans, every engine pinned, relstore pushdown) run twice —
# default, and with the columnar data plane force-disabled via the
# RHEEM_NO_COLUMNAR=1 kill switch — proving vectorized column kernels and
# the fused row path produce identical sink output. The ColumnarNarrowChain
# benchmark is covered by the NarrowChain smoke above.
RHEEM_NO_COLUMNAR=1 go test -count=1 -run='TestCrossCheckColumnar' .
go test -count=1 -run='TestCrossCheckColumnar' .
# Metrics lint: a fully-wired server (cache, cluster node, runtime sampler)
# runs real jobs, then every registered rheem_* metric must carry HELP text
# — an undocumented metric fails the gate.
go test -count=1 -run='TestMetricsLint' ./restapi
# Cluster smoke: three loopback peers. WordCount computed on one peer is
# served from the distributed cache by another (remote hit via
# rheem_cluster_remote_hits_total); /v1/cluster/metrics sums a counter
# across all three peers; and a routed job's stitched trace contains the
# serving peer's subtree, every grafted span peer-attributed.
go test -race -count=1 -run='TestClusterRemoteCacheHit|TestClusterMetricsAggregation|TestClusterRoutedTraceStitch' ./restapi
# Distributed execution smoke: a 2-peer -cluster-exec fleet runs a job with
# stages executing remotely (results equal to single-node, trace stitched,
# profile peer-attributed, shuffle files GC'd), survives the remote peer
# dying mid-run, and a 3-peer fleet proves via /v1/cluster/metrics that
# remote executions landed on at least two peers.
go test -race -count=1 -run='TestClusterDistexec' ./restapi
RHEEM_NO_DISTEXEC=1 go test -race -count=1 -run='TestClusterDistexecKillSwitch' ./restapi
