package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"fullweb/internal/obs"
	"fullweb/internal/serve"
	"fullweb/internal/stream"
	"fullweb/internal/telemetry"
)

// serveCalls is how many times each read-side call is timed.
const serveCalls = 200

// inProcessServe is one serve.Server fed the live input through its
// handler, with the WAL on or off.
type inProcessServe struct {
	srv      *serve.Server
	ingest   []float64 // us per accepted delivery
	walBytes int64
}

// runServeInProcess builds the runbook serve configuration in process,
// times every POST /ingest through Handler().ServeHTTP (closed loop:
// a 429 from a full buffer is retried after 1 ms and not timed),
// completes the source and waits for the fold to finish.
func runServeInProcess(ctx context.Context, e *env, dir string, wal bool) (*inProcessServe, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ecfg := stream.DefaultConfig()
	ecfg.Metrics = obs.NewRegistry()
	ecfg.CheckpointPath = filepath.Join(dir, "checkpoint")
	cfg := serve.Config{
		Sources: []string{"a"},
		Engine:  ecfg,
		Health:  telemetry.HealthConfig{Mode: stream.ModeBudgeted, Checkpointing: true},
		Log:     io.Discard,
	}
	if wal {
		cfg.WAL = &serve.WALConfig{Dir: filepath.Join(dir, "wal")}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	//lint:allow rawgo the server's fold loop, as fullweb serve runs it; completing the source ends it
	go func() {
		_, err := srv.Run(ctx, nil)
		done <- err
	}()
	p := &inProcessServe{srv: srv}
	feedErr := p.feed(e, wal)
	if feedErr != nil {
		srv.Drain()
	}
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("in-process serve did not finish folding within 60s")
	}
	if feedErr != nil {
		return nil, feedErr
	}
	if err != nil {
		return nil, err
	}
	if wal {
		p.walBytes, err = dirBytes(cfg.WAL.Dir)
	}
	return p, err
}

func (p *inProcessServe) feed(e *env, wal bool) error {
	h := p.srv.Handler()
	if wal {
		// Intake journals only once Run has opened the WAL.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, ok := p.srv.Holder().LatestWAL(); ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("in-process serve: journal not open after 10s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	in := e.in
	n := in.info.LiveLines
	dl := e.spec.pace.deliveryLines
	for i := 0; i*dl < n; i++ {
		lo, hi := i*dl, min((i+1)*dl, n)
		body := in.live[in.liveLineStarts[lo]:in.liveLineStarts[hi]]
		for {
			req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/ingest?source=a&delivery=%d", i), bytes.NewReader(body))
			rr := httptest.NewRecorder()
			t := time.Now()
			h.ServeHTTP(rr, req)
			d := time.Since(t)
			if rr.Code == http.StatusTooManyRequests {
				time.Sleep(time.Millisecond)
				continue
			}
			if rr.Code != http.StatusOK {
				return fmt.Errorf("in-process ingest %d: status %d: %s", i, rr.Code, rr.Body.String())
			}
			p.ingest = append(p.ingest, float64(d)/1e3)
			break
		}
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest?source=a&complete=1", nil))
	if rr.Code != http.StatusOK {
		return fmt.Errorf("in-process completion: status %d: %s", rr.Code, rr.Body.String())
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// timeGet times serveCalls GETs of path through h and returns the
// median in microseconds. Any status counts: a red /healthz still
// evaluates every rule.
func timeGet(h http.Handler, path string) float64 {
	var us []float64
	for i := 0; i < serveCalls; i++ {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		t := time.Now()
		h.ServeHTTP(rr, req)
		us = append(us, float64(time.Since(t))/1e3)
	}
	return median(us)
}

// measureServeLayers adds the serve and telemetry layer metrics: the
// intake handler with the WAL on and off, the read-side calls against
// the finished server, and the ack-to-visible split of one live run.
func measureServeLayers(ctx context.Context, e *env, out *outcome) error {
	withWAL, err := runServeInProcess(ctx, e, filepath.Join(e.dir, "inproc-wal"), true)
	if err != nil {
		return err
	}
	noWAL, err := runServeInProcess(ctx, e, filepath.Join(e.dir, "inproc-nowal"), false)
	if err != nil {
		return err
	}
	on, off := median(withWAL.ingest), median(noWAL.ingest)
	out.set("serve.ingest_us", "us", on)
	out.set("serve.ingest_nowal_us", "us", off)
	out.set("serve.wal_us", "us", on-off)
	out.set("serve.wal_bytes_per_input_byte", "ratio", float64(withWAL.walBytes)/float64(len(e.in.live)))

	h := withWAL.srv.Handler()
	for name, path := range map[string]string{
		"telemetry.metrics_render_us": "/metrics",
		"telemetry.snapshot_json_us":  "/snapshot",
		"telemetry.health_eval_us":    "/healthz",
	} {
		out.set(name, "us", timeGet(h, path))
	}
	var whatif []float64
	q := serve.WhatIfQuery{Scale: 1.5, Capacity: 500, Servers: 3}
	for i := 0; i < serveCalls; i++ {
		t := time.Now()
		if _, err := serve.ComputeWhatIf(withWAL.srv.Holder(), q); err != nil {
			return err
		}
		whatif = append(whatif, float64(time.Since(t))/1e3)
	}
	out.set("serve.whatif_us", "us", median(whatif))

	holder := telemetry.NewHolder(obs.SystemClock())
	rt := stream.RuntimeStats{Records: e.in.info.Records, Lines: e.in.info.Records}
	const publishes = 100_000
	t := time.Now()
	for i := 0; i < publishes; i++ {
		holder.PublishRuntime(rt)
	}
	out.set("telemetry.publish_runtime_ns", "ns", float64(time.Since(t))/publishes)

	dir := filepath.Join(e.dir, "live-traced")
	lr, err := runLive(ctx, e, dir)
	if err != nil {
		return err
	}
	_ = os.RemoveAll(dir) // the journal is tens of MB; free it now
	out.check(lr.final == e.in.liveFinal, "traced live run: serve final block differs from fullweb stream over the delivered bytes")
	s := summarizeLive([]*liveRun{lr})
	out.ops("delivery", s.deliveries, s.refused)
	out.ops("whatif", s.whatifCalls, s.whatifErrs)
	out.set("serve.round_wait_ms_p50", "ms", percentile(s.waits, 50))
	out.set("serve.fold_ms_p50", "ms", percentile(s.folds, 50))
	out.detail["generator_late_max_ms"] = ms(s.lateMax)
	return nil
}

// writeSpans keeps the traced pass's spans beside the ledger, one JSON
// object per line.
func writeSpans(e *env, spans []span) error {
	dir := filepath.Join(filepath.Dir(e.dir), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", e.spec.name, e.seed)), buf.Bytes(), 0o644)
}
