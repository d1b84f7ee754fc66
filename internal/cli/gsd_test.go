package cli

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/stream"
)

// TestMain doubles the test binary as the gsd executable: with GSD_HELPER
// set, the process runs RunGSD on its arguments instead of the test suite.
// The cluster tests below exec real shard processes this way — no separate
// build step, and `go test` still owns the lifecycle.
func TestMain(m *testing.M) {
	if os.Getenv("GSD_HELPER") == "1" {
		if err := RunGSD(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "gsd: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnHelperShard launches this test binary as a gsd shard server. An
// empty addr picks an ephemeral port; a concrete addr rebinds it (the
// respawn path of the kill-and-restore drill).
func spawnHelperShard(t *testing.T, addr string) (string, *exec.Cmd) {
	t.Helper()
	t.Setenv("GSD_HELPER", "1")
	if addr == "" {
		bound, cmd, err := spawnShard(os.Args[0], os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		return bound, cmd
	}
	c := exec.Command(os.Args[0], "-serve", "-addr", addr)
	c.Stderr = os.Stderr
	out, err := c.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the listen line before letting the coordinator reconnect.
	buf := make([]byte, 256)
	if _, err := out.Read(buf); err != nil {
		t.Fatal(err)
	}
	return addr, c
}

// gsdStream writes a churny dynamic stream to a temp file and returns its
// path plus the parsed stream.
func gsdStream(t *testing.T, n int) (string, stream.Stream) {
	t.Helper()
	g := graph.MustHypergraph(n, 2)
	for v := 1; v < n; v++ {
		g.MustAddEdge(graph.MustEdge((v-1)/2, v), 1)
	}
	var st stream.Stream
	for _, e := range g.Edges() {
		// Churn: insert a transient chord, the tree edge, then delete the chord.
		if e[1] >= 2 {
			chord := graph.MustEdge(e[1]-2, e[1])
			if !g.Has(chord) {
				st = append(st,
					stream.Update{Op: stream.Insert, Edge: chord},
					stream.Update{Op: stream.Insert, Edge: e},
					stream.Update{Op: stream.Delete, Edge: chord})
				continue
			}
		}
		st = append(st, stream.Update{Op: stream.Insert, Edge: e})
	}
	path := filepath.Join(t.TempDir(), "stream.txt")
	var buf bytes.Buffer
	if err := stream.WriteText(&buf, st); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, st
}

// TestGSDClusterEndToEnd drives the full CLI surface for every cluster
// sketch kind: three real gsd shard processes on loopback (shared by the
// kinds, one session each), a coordinator run with -verify (byte-match
// against the serial baseline, both sides decoded through oracle.Decode)
// and a -connected query through the coordinator oracle.
func TestGSDClusterEndToEnd(t *testing.T) {
	const n = 32
	streamPath, _ := gsdStream(t, n)

	var addrs []string
	for i := 0; i < 3; i++ {
		addr, cmd := spawnHelperShard(t, "")
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		addrs = append(addrs, addr)
	}

	for _, kind := range [][]string{
		{"-sketch", "spanning"},
		{"-sketch", "skeleton", "-k", "2"},
		// A 4-word budget holds two buffer entries, so the stream's
		// degree-3 vertices spill and the decode takes the mixed path.
		{"-sketch", "hybrid", "-budget", "4"},
	} {
		t.Run(kind[1], func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{
				"-coordinator", "-shards", strings.Join(addrs, ","),
				"-n", fmt.Sprint(n), "-seed", "5",
				"-stream", streamPath, "-batch", "8", "-checkpoint-every", "2",
				"-verify", "-connected", "0,31",
			}, kind...)
			if err := RunGSD(args, nil, &stdout, &stderr); err != nil {
				t.Fatalf("coordinator: %v\nstderr: %s", err, stderr.String())
			}
			out := stdout.String()
			if !strings.Contains(out, "components: 1") {
				t.Errorf("coordinator did not report one component:\n%s", out)
			}
			if !strings.Contains(out, "verify: OK") {
				t.Errorf("verify did not pass:\n%s", out)
			}
			if !strings.Contains(out, "0 and 31 are connected") {
				t.Errorf("oracle query wrong:\n%s", out)
			}
		})
	}
}

// TestGSDKillRestoreDrill is the cluster failure drill with real processes:
// one shard process is SIGKILLed mid-stream, a fresh process rebinds its
// address, and the coordinator's checkpoint-restore + replay must land the
// final state byte-identical to a serial run of the same stream.
func TestGSDKillRestoreDrill(t *testing.T) {
	const n, seed = 32, 5
	_, st := gsdStream(t, n)
	batches := streamBatchesCLI(st, 8)

	var addrs []string
	var procs []*exec.Cmd
	for i := 0; i < 3; i++ {
		addr, cmd := spawnHelperShard(t, "")
		procs = append(procs, cmd)
		addrs = append(addrs, addr)
	}
	t.Cleanup(func() {
		for _, c := range procs {
			c.Process.Kill()
			c.Wait()
		}
	})

	proto, err := clusterProto("spanning", n, 0, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := shardplane.DialTCP(proto, addrs, shardplane.TCPOptions{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewWithTransport(tr)
	defer eng.Close()

	half := len(batches) / 2
	for _, b := range batches[:half] {
		if err := tr.Route(b); err != nil {
			t.Fatal(err)
		}
	}
	// Kill shard 1 the hard way and bring a stateless replacement up on the
	// same address.
	procs[1].Process.Kill()
	procs[1].Wait()
	_, procs[1] = spawnHelperShard(t, addrs[1])
	for _, b := range batches[half:] {
		if err := tr.Route(b); err != nil {
			t.Fatal(err)
		}
	}

	gathered, err := freshFrom(proto)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Gather(gathered); err != nil {
		t.Fatal(err)
	}
	serial, err := freshFrom(proto)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(st, serial); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gathered.Marshal(), serial.Marshal()) {
		t.Fatal("state after process kill-and-restore differs from serial baseline")
	}
}

// TestGenstreamLoadgen exercises the genstream -shards loadgen mode against
// helper-process shards end to end.
func TestGenstreamLoadgen(t *testing.T) {
	t.Setenv("GSD_HELPER", "1")
	var stdout, stderr bytes.Buffer
	err := RunGenstream([]string{
		"-family", "er", "-n", "24", "-p", "0.2", "-churn", "0.4", "-seed", "3",
		"-shards", "3", "-gsd", os.Args[0],
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("loadgen: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "verify: OK") {
		t.Errorf("loadgen verify did not pass:\n%s\nstderr: %s", out, stderr.String())
	}
	if !strings.Contains(out, "3 TCP shards match the serial decode") {
		t.Errorf("loadgen summary missing:\n%s", out)
	}
}

// streamBatchesCLI converts a stream into routed batches (test helper; the
// shardplane tests have their own copy in their package).
func streamBatchesCLI(st stream.Stream, size int) [][]graph.WeightedEdge {
	var out [][]graph.WeightedEdge
	for lo := 0; lo < len(st); lo += size {
		hi := min(lo+size, len(st))
		batch := make([]graph.WeightedEdge, 0, hi-lo)
		for _, u := range st[lo:hi] {
			batch = append(batch, graph.WeightedEdge{E: u.Edge, W: int64(u.Op)})
		}
		out = append(out, batch)
	}
	return out
}
