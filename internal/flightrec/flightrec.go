// Package flightrec is the failure flight recorder: a bounded black box
// that captures a diagnostic bundle the moment the controller degrades —
// a ladder engagement above the warm rung, a plan-verifier rejection, or
// any classified solver error. Each bundle is one JSON file (recent span
// window, last exported EpochSample, fault-schedule state, LP work
// stats) written atomically via internal/persist so a
// crash mid-dump can never leave a torn file.
// Recording is rate-limited and the directory is pruned to a fixed
// bundle count, so a flapping fault cannot fill the disk. A nil
// *Recorder is the disabled state: Record is a no-op.
package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"thermaldc/internal/persist"
	"thermaldc/internal/telemetry"
)

// DefaultMaxBundles bounds the directory when Config.MaxBundles <= 0.
const DefaultMaxBundles = 16

// DefaultMinInterval rate-limits recording when Config.MinInterval <= 0.
const DefaultMinInterval = 10 * time.Second

// DefaultSpanWindow caps Bundle.Spans when Config.SpanWindow <= 0.
const DefaultSpanWindow = 256

// Config sizes a Recorder.
type Config struct {
	// Dir receives the bundle files; created if missing.
	Dir string
	// MaxBundles bounds the directory: the oldest bundles are pruned once
	// more than MaxBundles exist (DefaultMaxBundles when <= 0).
	MaxBundles int
	// MinInterval drops triggers that fire within MinInterval of the last
	// accepted one (DefaultMinInterval when <= 0, unlimited when < 0 is
	// not supported — use a tiny positive value to effectively disable).
	MinInterval time.Duration
	// SpanWindow caps how many of the most recent spans a bundle retains
	// (DefaultSpanWindow when <= 0).
	SpanWindow int
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// Bundle is the diagnostic payload of one trigger. Every field except
// Reason, Time, and Seq is best-effort: absent when the matching
// telemetry hook is not wired.
type Bundle struct {
	// Reason names the trigger ("ladder-cold", "verify-reject",
	// "solve-error-timeout", ...).
	Reason string `json:"reason"`
	// Time is the wall-clock capture instant; Seq the recorder's bundle
	// sequence number (monotone, survives pruning).
	Time time.Time `json:"time"`
	Seq  int       `json:"seq"`
	// Run/Epoch locate the trigger in the experiment.
	Run   int `json:"run,omitempty"`
	Epoch int `json:"epoch"`
	// Rung, ErrKind, and Violations summarize the epoch outcome.
	Rung       string `json:"rung,omitempty"`
	ErrKind    string `json:"err_kind,omitempty"`
	Violations int    `json:"violations,omitempty"`
	// Spans is the most recent window of the tracer ring, oldest first.
	Spans []telemetry.Span `json:"spans,omitempty"`
	// LastSample is the epoch's exported time-series row.
	LastSample *telemetry.EpochSample `json:"last_sample,omitempty"`
	// Faults is the fault-schedule state in force (faults.State).
	Faults any `json:"faults,omitempty"`
	// LP is the epoch's solver work stats (linprog.Stats).
	LP any `json:"lp,omitempty"`
}

// Recorder writes bundles. Safe for concurrent use.
type Recorder struct {
	cfg Config

	mu       sync.Mutex
	last     time.Time
	seq      int
	recorded int
	dropped  int
}

// New creates the bundle directory and returns a recorder over it.
func New(cfg Config) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flightrec: empty bundle directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flightrec: creating %s: %w", cfg.Dir, err)
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = DefaultMaxBundles
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = DefaultMinInterval
	}
	if cfg.SpanWindow <= 0 {
		cfg.SpanWindow = DefaultSpanWindow
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Recorder{cfg: cfg}, nil
}

// SpanWindow trims a full tracer snapshot to the recorder's retained
// window (the most recent spans, still oldest first). Nil-safe.
func (r *Recorder) SpanWindow(spans []telemetry.Span) []telemetry.Span {
	if r == nil {
		return nil
	}
	if len(spans) > r.cfg.SpanWindow {
		spans = spans[len(spans)-r.cfg.SpanWindow:]
	}
	return spans
}

// Record captures b, stamping Time and Seq. It returns the bundle path,
// or "" when the trigger was rate-limited away. A nil recorder drops
// everything. Errors are I/O failures writing or pruning the directory.
func (r *Recorder) Record(b Bundle) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.cfg.Now()
	if !r.last.IsZero() && now.Sub(r.last) < r.cfg.MinInterval {
		r.dropped++
		return "", nil
	}
	b.Time = now
	b.Seq = r.seq
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return "", fmt.Errorf("flightrec: encoding bundle: %w", err)
	}
	path := filepath.Join(r.cfg.Dir, fmt.Sprintf("bundle-%08d-%s.json", b.Seq, sanitizeReason(b.Reason)))
	if err := persist.WriteFileAtomic(path, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return "", err
	}
	r.seq++
	r.recorded++
	r.last = now
	if err := r.prune(); err != nil {
		return "", err
	}
	return path, nil
}

// Stats reports how many triggers were recorded and rate-limited away.
func (r *Recorder) Stats() (recorded, dropped int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorded, r.dropped
}

// prune deletes the oldest bundles beyond MaxBundles. Bundle names embed
// a zero-padded sequence number, so lexical order is age order.
func (r *Recorder) prune() error {
	names, err := bundleNames(r.cfg.Dir)
	if err != nil {
		return err
	}
	for len(names) > r.cfg.MaxBundles {
		if err := os.Remove(filepath.Join(r.cfg.Dir, names[0])); err != nil {
			return fmt.Errorf("flightrec: pruning %s: %w", names[0], err)
		}
		names = names[1:]
	}
	return nil
}

// bundleNames lists bundle files oldest first.
func bundleNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("flightrec: listing %s: %w", dir, err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// List returns the full paths of the retained bundles, oldest first.
func List(dir string) ([]string, error) {
	names, err := bundleNames(dir)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return paths, nil
}

// ReadBundle parses one bundle file.
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("flightrec: reading bundle: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flightrec: parsing %s: %w", path, err)
	}
	if b.Reason == "" {
		return nil, fmt.Errorf("flightrec: %s: bundle has no reason", path)
	}
	return &b, nil
}

// sanitizeReason keeps bundle filenames portable.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "unknown"
	}
	out := []byte(reason)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
