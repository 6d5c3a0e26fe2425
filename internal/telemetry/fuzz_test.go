package telemetry

import (
	"bytes"
	"testing"
)

// FuzzReadChromeTrace feeds ReadChromeTrace, the reader behind `tapo trace
// lint` and `tapo trace summary`, arbitrary bytes. It may return an error
// but must never panic, and a trace it accepts must go through Lint, which
// may reject it, without panicking either.
func FuzzReadChromeTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := tracedWork(f).WriteChrome(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"X","args":{"kind":-1}}]} {}`))
	f.Add([]byte(`{"traceEvents":[{"ts":1e999}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			if ct != nil {
				t.Fatalf("error %v with a non-nil trace", err)
			}
			return
		}
		if ct == nil {
			t.Fatal("no error and no trace")
		}
		_ = ct.Lint()
	})
}
