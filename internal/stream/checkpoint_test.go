package stream_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fullweb/internal/faultpoint"
	"fullweb/internal/stream"
)

// dirtyFixture interleaves the clean fixture with malformed lines so
// crash-recovery also exercises quarantine equivalence.
func dirtyFixture(t testing.TB) []byte {
	t.Helper()
	var out bytes.Buffer
	for i, line := range strings.Split(string(fixtureBytes(t)), "\n") {
		if i > 0 && i%97 == 0 {
			fmt.Fprintf(&out, "### corrupted line %d ###\n", i)
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func faultCtx(t testing.TB, spec string) context.Context {
	t.Helper()
	set, err := faultpoint.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return faultpoint.With(context.Background(), set)
}

// renderAll runs an engine over text, returning every rendered block
// and the final snapshot's rendering alone.
func renderAll(t testing.TB, eng *stream.Engine, ctx context.Context, text []byte) (full, finalBlock string) {
	t.Helper()
	var out bytes.Buffer
	final, err := eng.ProcessCtx(ctx, bytes.NewReader(text), func(s *stream.Snapshot) error {
		return s.Render(&out)
	})
	if err != nil {
		t.Fatal(err)
	}
	var fb bytes.Buffer
	if err := final.Render(&fb); err != nil {
		t.Fatal(err)
	}
	out.Write(fb.Bytes())
	return out.String(), fb.String()
}

// TestCrashRecoveryEquivalence is the PR's crash-recovery gate: kill
// the engine at an injected fault, resume from the checkpoint — with a
// DIFFERENT worker count and chunk geometry — and require the final
// snapshot (totals line included) byte-identical to an uninterrupted
// run, and the quarantine file byte-identical too.
func TestCrashRecoveryEquivalence(t *testing.T) {
	text := dirtyFixture(t)
	baseCfg := func() stream.Config {
		cfg := stream.DefaultConfig()
		cfg.SnapshotEvery = 4 * time.Hour
		return cfg
	}

	// Uninterrupted baseline (any geometry: output is geometry-free).
	dir := t.TempDir()
	blQuar, err := os.Create(filepath.Join(dir, "baseline.quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg()
	cfg.Workers = 2
	cfg.Quarantine = blQuar
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, wantFinal := renderAll(t, eng, context.Background(), text)
	blQuar.Close()
	wantQuar, err := os.ReadFile(blQuar.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(wantQuar, []byte("### corrupted line")) {
		t.Fatal("quarantine baseline is empty — fixture dirtying broke")
	}

	for _, tc := range []struct {
		name            string
		fault           string
		crashW, resumeW int
		crashCh, resume int // chunk lines
	}{
		{"fold-fault", "stream.fold=hit:40", 1, 4, 64, 1024},
		{"fold-fault-other-geometry", "stream.fold=hit:23", 4, 1, 96, 256},
		{"snapshot-fault", "stream.snapshot=hit:5", 2, 3, 512, 640},
		{"checkpoint-fault", "stream.checkpoint=hit:3", 3, 2, 512, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "stream.ckpt")
			quarPath := filepath.Join(dir, "quarantine.log")

			// Crashed run: armed fault, checkpointing on.
			qf, err := os.Create(quarPath)
			if err != nil {
				t.Fatal(err)
			}
			cfg := baseCfg()
			cfg.Workers = tc.crashW
			cfg.Chunk.Lines = tc.crashCh
			cfg.CheckpointPath = ckpt
			cfg.Quarantine = qf
			eng, err := stream.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.ProcessCtx(faultCtx(t, tc.fault), bytes.NewReader(text), nil)
			qf.Close()
			if err == nil || !faultpoint.IsFault(err) {
				t.Fatalf("crashed run did not die on the injected fault: %v", err)
			}

			// Resume from the checkpoint with different workers and
			// chunk geometry.
			cp, err := stream.LoadCheckpoint(ckpt)
			if err != nil {
				t.Fatalf("loading checkpoint after crash: %v", err)
			}
			// Truncate the quarantine to the checkpointed offset, as
			// the CLI's -resume does, then reopen for append.
			if err := os.Truncate(quarPath, cp.QuarantineOffset()); err != nil {
				t.Fatal(err)
			}
			qf, err = os.OpenFile(quarPath, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			rcfg := baseCfg()
			rcfg.Workers = tc.resumeW
			rcfg.Chunk.Lines = tc.resume
			rcfg.CheckpointPath = ckpt
			rcfg.Quarantine = qf
			resumed, err := stream.ResumeEngine(rcfg, cp)
			if err != nil {
				t.Fatal(err)
			}
			_, gotFinal := renderAll(t, resumed, context.Background(), text)
			qf.Close()
			if gotFinal != wantFinal {
				t.Errorf("resumed final snapshot differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", wantFinal, gotFinal)
			}
			gotQuar, err := os.ReadFile(quarPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotQuar, wantQuar) {
				t.Errorf("resumed quarantine differs: %d bytes vs %d", len(gotQuar), len(wantQuar))
			}
		})
	}
}

// TestCheckpointRoundTrip: a resumed engine serializes to exactly the
// bytes of the engine it was restored from.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := stream.DefaultConfig()
	cfg.SnapshotEvery = 6 * time.Hour
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "rt.ckpt")
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ProcessCtx(context.Background(), bytes.NewReader(fixtureBytes(t)), nil); err != nil {
		t.Fatal(err)
	}
	var orig bytes.Buffer
	if err := eng.WriteCheckpoint(&orig); err != nil {
		t.Fatal(err)
	}
	cp, err := stream.ReadCheckpoint(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := stream.ResumeEngine(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := resumed.WriteCheckpoint(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), back.Bytes()) {
		t.Fatal("checkpoint round trip is not byte-identical")
	}
}

// TestCheckpointValidation: corruption, bad headers, version skew and
// config mismatches are all rejected with errors, never trusted.
func TestCheckpointValidation(t *testing.T) {
	cfg := stream.DefaultConfig()
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ProcessCtx(context.Background(), bytes.NewReader(fixtureBytes(t)), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-10] ^= 0x01
	if _, err := stream.ReadCheckpoint(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt payload accepted: %v", err)
	}
	truncated := good[:len(good)/2]
	if _, err := stream.ReadCheckpoint(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if _, err := stream.ReadCheckpoint(strings.NewReader("not a checkpoint\n{}")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Version skew in either direction: a future version, and v3 — the
	// last layout with float aggregated-variance moments and a stored
	// expiry heap — are both refused by the version check.
	current := " " + strings.Fields(string(good[:bytes.IndexByte(good, '\n')]))[1] + " "
	for _, v := range []string{" v9 ", " v3 "} {
		skewed := bytes.Replace(good, []byte(current), []byte(v), 1)
		if bytes.Equal(skewed, good) {
			t.Fatalf("header %q did not change when rewritten to %q", current, v)
		}
		if _, err := stream.ReadCheckpoint(bytes.NewReader(skewed)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("checkpoint header with%saccepted: %v", v, err)
		}
	}

	cp, err := stream.ReadCheckpoint(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = cfg.Seed + 1
	if _, err := stream.ResumeEngine(other, cp); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("seed mismatch accepted: %v", err)
	}
	// Worker count and chunk geometry are NOT part of the fingerprint.
	free := cfg
	free.Workers = 7
	free.Chunk.Lines = 123
	if _, err := stream.ResumeEngine(free, cp); err != nil {
		t.Fatalf("geometry change rejected: %v", err)
	}
}

// TestDeterminismUnderFaults: the injection framework obeys the same
// determinism contract as the engine — two runs with the identical
// fault spec render identical snapshots, identical quarantine bytes
// and fail with the identical error.
func TestDeterminismUnderFaults(t *testing.T) {
	text := dirtyFixture(t)
	run := func(workers int) (rendered, quarantine, errMsg string) {
		cfg := stream.DefaultConfig()
		cfg.SnapshotEvery = 4 * time.Hour
		cfg.Workers = workers
		cfg.Chunk.Lines = 64
		var quar bytes.Buffer
		cfg.Quarantine = &quar
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		_, err = eng.ProcessCtx(faultCtx(t, "stream.fold=rate:0.1,seed:11,times:1"), bytes.NewReader(text), func(s *stream.Snapshot) error {
			return s.Render(&out)
		})
		if err == nil {
			t.Fatal("rate fault never fired on this trace; lower the bar")
		}
		return out.String(), quar.String(), err.Error()
	}
	r1, q1, e1 := run(1)
	r2, q2, e2 := run(4)
	if r1 != r2 || q1 != q2 || e1 != e2 {
		t.Fatalf("identical fault spec diverged across workers:\nerr1=%s\nerr2=%s", e1, e2)
	}
}
