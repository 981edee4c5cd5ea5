// jigsawd is the online scheduling daemon: the paper's allocator running as
// a long-lived service that accepts job submissions over HTTP instead of
// replaying a recorded trace. See internal/server for the API and the
// single-writer concurrency model.
//
// Usage:
//
//	jigsawd [-addr :8080] [-radix 16] [-policy jigsaw] [-clock wall|virtual]
//	        [-scenario None] [-window 50] [-no-backfill] [-fail-policy requeue]
//	        [-elastic] [-shards 1] [-v]
//
// With -clock virtual the daemon fast-forwards through events whenever it is
// idle, which replays a submitted trace as fast as the allocator can place
// jobs; with -clock wall (the default) jobs complete in real time. The
// daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests first.
//
// Examples:
//
//	jigsawd -addr :8080 -radix 16 -policy jigsaw
//	curl -s -X POST localhost:8080/v1/jobs -d '{"size":64,"runtime":3600}'
//	curl -s localhost:8080/v1/cluster
//	curl -s -X POST localhost:8080/v1/fail -d '{"kind":"leaf-switch","leaf":2}'
//	curl -s -X POST localhost:8080/v1/recover -d '{"kind":"leaf-switch","leaf":2}'
//	curl -s localhost:8080/metrics | grep jigsawd_utilization
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	jigsaw "repro"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		radix      = flag.Int("radix", 16, "fat-tree switch radix (16=1024 nodes, 18=1458, 22=2662, 28=5488)")
		policy     = flag.String("policy", "jigsaw", "allocation policy: baseline|laas|ta|lcs|jigsaw|jigsaw+s")
		clock      = flag.String("clock", "wall", "clock mode: wall (real time) or virtual (fast-forward replay)")
		scenarioN  = flag.String("scenario", "None", "speed-up scenario applied to isolated jobs: None|5%|10%|20%|V2|Random")
		window     = flag.Int("window", jigsaw.DefaultWindow, "EASY backfill lookahead window")
		noBackfill = flag.Bool("no-backfill", false, "disable EASY backfilling (pure FIFO)")
		failPolicy = flag.String("fail-policy", "requeue", "what happens to running jobs hit by POST /v1/fail: requeue|kill|shrink")
		elastic    = flag.Bool("elastic", false, "accept elastic jobs (min_nodes/max_nodes/priority/deadline): shrink under -fail-policy shrink, grow into idle capacity, deadline admission, priority preemption")
		shards     = flag.Int("shards", 1, "split the fabric into this many per-cell engines (1 = one engine over the whole tree)")
		verbose    = flag.Bool("v", false, "log every request")
	)
	flag.Parse()
	if err := run(*addr, *radix, *policy, *clock, *scenarioN, *window, *noBackfill, *failPolicy, *elastic, *shards, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "jigsawd:", err)
		os.Exit(1)
	}
}

func run(addr string, radix int, policy, clock, scenarioName string, window int, noBackfill bool, failPolicy string, elastic bool, shards int, verbose bool) error {
	scheme, err := canonicalScheme(policy)
	if err != nil {
		return err
	}
	onFailure, err := engine.ParseFailurePolicy(failPolicy)
	if err != nil {
		return err
	}
	tree, err := jigsaw.NewFatTree(radix)
	if err != nil {
		return err
	}
	a, err := jigsaw.NewAllocator(scheme, tree)
	if err != nil {
		return err
	}
	sc, err := jigsaw.ScenarioByName(scenarioName)
	if err != nil {
		return err
	}
	var virtual bool
	switch clock {
	case "wall":
	case "virtual":
		virtual = true
	default:
		return fmt.Errorf("unknown clock mode %q (want wall or virtual)", clock)
	}

	level := slog.LevelWarn
	if verbose {
		level = slog.LevelInfo
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	s, err := server.New(server.Config{
		Alloc:           a,
		Scenario:        sc,
		ApplySpeedups:   scheme != jigsaw.SchemeBaseline,
		Window:          window,
		DisableBackfill: noBackfill,
		OnFailure:       onFailure,
		Elastic:         elastic,
		VirtualClock:    virtual,
		Logger:          logger,
		Shards:          shards,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("jigsawd: %s policy on %d nodes (radix %d), %s clock, %d shard(s), listening on %s\n",
		scheme, tree.Nodes(), radix, clock, shards, addr)
	return s.ListenAndServe(ctx, addr)
}

// canonicalScheme maps a case-insensitive policy flag to a scheme name.
func canonicalScheme(policy string) (string, error) {
	for _, s := range experiments.Registered {
		if strings.EqualFold(policy, s) {
			return s, nil
		}
	}
	return "", fmt.Errorf("unknown policy %q (want baseline, laas, ta, lcs, jigsaw, or jigsaw+s)", policy)
}
