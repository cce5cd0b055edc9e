package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParseArgsWiresServiceConfig pins the flag → service.Config wiring:
// every tunable the daemon advertises must land in the field the service
// reads, or the flag silently configures nothing.
func TestParseArgsWiresServiceConfig(t *testing.T) {
	var stderr strings.Builder
	opt, err := parseArgs([]string{
		"-addr", "127.0.0.1:9090",
		"-parallel", "4",
		"-cache-shards", "8",
		"-cache-entries", "-1",
		"-max-inflight", "5",
		"-max-queue", "-1",
		"-compute-timeout", "30s",
		"-sweep-max-jobs", "3",
		"-sweep-max-cells", "64",
		"-batch-max-items", "7",
		"-trace-buffer", "17",
		"-debug-addr", "127.0.0.1:6060",
		"-log-level", "debug",
		"-log-format", "json",
	}, &stderr)
	if err != nil {
		t.Fatalf("parseArgs: %v (stderr: %s)", err, stderr.String())
	}
	if opt.addr != "127.0.0.1:9090" {
		t.Errorf("addr = %q", opt.addr)
	}
	cfg := opt.cfg
	if cfg.Parallel != 4 {
		t.Errorf("Parallel = %d, want 4", cfg.Parallel)
	}
	if cfg.CacheShards != 8 || cfg.CacheEntriesPerShard != -1 {
		t.Errorf("cache config %d/%d", cfg.CacheShards, cfg.CacheEntriesPerShard)
	}
	if cfg.MaxInflight != 5 || cfg.MaxQueue != -1 {
		t.Errorf("admission config %d/%d", cfg.MaxInflight, cfg.MaxQueue)
	}
	if cfg.ComputeTimeout != 30*time.Second {
		t.Errorf("ComputeTimeout = %v, want 30s", cfg.ComputeTimeout)
	}
	if cfg.SweepMaxJobs != 3 || cfg.SweepMaxCells != 64 {
		t.Errorf("sweep config %d/%d", cfg.SweepMaxJobs, cfg.SweepMaxCells)
	}
	if cfg.BatchMaxItems != 7 {
		t.Errorf("BatchMaxItems = %d, want 7", cfg.BatchMaxItems)
	}
	if cfg.TraceBuffer != 17 {
		t.Errorf("TraceBuffer = %d, want 17", cfg.TraceBuffer)
	}
	if opt.debugAddr != "127.0.0.1:6060" {
		t.Errorf("debugAddr = %q", opt.debugAddr)
	}
	if cfg.Logger == nil {
		t.Error("Logger not wired")
	}
}

// TestParseArgsDefaults pins the documented defaults.
func TestParseArgsDefaults(t *testing.T) {
	var stderr strings.Builder
	opt, err := parseArgs(nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if opt.addr != ":8080" {
		t.Errorf("addr = %q", opt.addr)
	}
	if opt.cfg.Parallel != 0 || opt.cfg.CacheShards != 16 || opt.cfg.MaxInflight != 64 {
		t.Errorf("defaults %+v", opt.cfg)
	}
	if opt.cfg.ComputeTimeout != 2*time.Minute {
		t.Errorf("ComputeTimeout default = %v", opt.cfg.ComputeTimeout)
	}
	if opt.cfg.BatchMaxItems != 64 {
		t.Errorf("BatchMaxItems default = %d", opt.cfg.BatchMaxItems)
	}
}

// TestParseArgsWiresCluster pins the -peers/-self → Config.Cluster wiring
// and the state-dir/interval options.
func TestParseArgsWiresCluster(t *testing.T) {
	var stderr strings.Builder
	opt, err := parseArgs([]string{
		"-peers", "http://127.0.0.1:1801,http://127.0.0.1:1802, http://127.0.0.1:1803,",
		"-self", "http://127.0.0.1:1802",
		"-state-dir", "/tmp/state",
		"-snapshot-interval", "5s",
	}, &stderr)
	if err != nil {
		t.Fatalf("parseArgs: %v (stderr: %s)", err, stderr.String())
	}
	if opt.cfg.Cluster == nil {
		t.Fatal("Cluster not wired")
	}
	if got := opt.cfg.Cluster.Self(); got != "http://127.0.0.1:1802" {
		t.Errorf("Self = %q", got)
	}
	if got := len(opt.cfg.Cluster.Ring().Peers()); got != 3 {
		t.Errorf("ring holds %d peers, want 3 (empties dropped)", got)
	}
	if opt.stateDir != "/tmp/state" || opt.snapshotIv != 5*time.Second {
		t.Errorf("state options %q/%v", opt.stateDir, opt.snapshotIv)
	}
}

// TestParseArgsSingleNodeHasNoCluster: without -peers the daemon serves
// everything locally and the stats cluster block stays absent.
func TestParseArgsSingleNodeHasNoCluster(t *testing.T) {
	var stderr strings.Builder
	opt, err := parseArgs(nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if opt.cfg.Cluster != nil {
		t.Error("Cluster wired without -peers")
	}
}

// TestParseArgsRejectsBadFlags: unknown flags and malformed values error
// instead of being swallowed (main exits 2 on the error path).
func TestParseArgsRejectsBadFlags(t *testing.T) {
	bad := [][]string{
		{"-no-such-flag"},
		{"-parallel", "many"},
		{"-compute-timeout", "fast"},
		{"-log-level", "loud"},
		{"-log-format", "xml"},
		// Cluster topology mistakes must fail at boot, not at first request:
		// -peers without -self, -self without -peers, self outside the list,
		// a duplicated peer.
		{"-peers", "http://a,http://b"},
		{"-self", "http://a"},
		{"-peers", "http://a,http://b", "-self", "http://c"},
		{"-peers", "http://a,http://a", "-self", "http://a"},
	}
	for _, args := range bad {
		var stderr strings.Builder
		if _, err := parseArgs(args, &stderr); err == nil {
			t.Errorf("args %v parsed without error", args)
		} else if stderr.Len() == 0 {
			t.Errorf("args %v produced no usage output", args)
		}
	}
}

// lockedBuffer is a bytes.Buffer safe to read while a flusher writes it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestLogBufferFlushesOnTick: log lines stay in the buffer until a flush,
// and the flush loop delivers them without any further write.
func TestLogBufferFlushesOnTick(t *testing.T) {
	var out lockedBuffer
	b := newLogBuffer(&out)
	fmt.Fprintln(b, "request path=/v1/simulate")
	if got := out.String(); got != "" {
		t.Fatalf("a line reached stderr before any flush: %q", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go b.flushEvery(ctx, time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); out.String() == ""; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the flush loop never delivered the buffered line")
		}
	}
	if got := out.String(); got != "request path=/v1/simulate\n" {
		t.Errorf("flushed %q", got)
	}
}
