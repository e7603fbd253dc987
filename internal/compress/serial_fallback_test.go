package compress

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
)

// One worker engages the serial fallback: the scheduler machinery is
// skipped entirely, both when workers=1 is explicit and when workers<=0
// resolves to GOMAXPROCS(0)==1 (the 1-CPU container case the regression
// hit). With real CPUs and workers>1 the scheduler runs.
func TestParallelReaderSerialFallbackEngages(t *testing.T) {
	stream := writeSerial(t, passthrough{}, parallelData(8<<10), 1024)

	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	r := NewParallelReader(passthrough{}, bytes.NewReader(stream), 1)
	if r.serial == nil {
		t.Fatal("workers=1 did not engage the serial fallback")
	}
	r.Close()

	r = NewParallelReader(passthrough{}, bytes.NewReader(stream), 2)
	if r.serial != nil {
		t.Fatal("workers=2 with real CPUs engaged the serial fallback; the scheduler should run")
	}
	r.Close()

	runtime.GOMAXPROCS(1)
	r = NewParallelReader(passthrough{}, bytes.NewReader(stream), 0)
	if r.serial == nil {
		t.Fatal("workers=0 under GOMAXPROCS(1) did not engage the serial fallback")
	}
	r.Close()
}

// On a 1-CPU host extra workers cannot add CPU for any codec, so the
// fallback must engage even when more workers were requested; with real
// CPUs available the scheduler runs. BENCH_compress.json measured the cost
// of keeping the pool there: parallel decode at 0.90-0.98x of serial for
// bzip2/fpc32/fpc-posit at workers=4. (The per-registry-codec pin lives in
// TestSerialFallbackPolicyEveryRegistryCodec.)
func TestParallelReaderLightCodecFallback(t *testing.T) {
	stream := writeSerial(t, passthrough{}, parallelData(8<<10), 1024)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	r := NewParallelReader(passthrough{}, bytes.NewReader(stream), 4)
	if r.serial == nil {
		t.Fatal("workers=4 under GOMAXPROCS(1) kept the scheduler; extra workers cannot add CPU on one core")
	}
	r.Close()

	runtime.GOMAXPROCS(2)
	r = NewParallelReader(passthrough{}, bytes.NewReader(stream), 4)
	if r.serial != nil {
		t.Fatal("workers=4 with real CPUs available engaged the fallback; the scheduler should run")
	}
	r.Close()

	// And the fallback path must still decode correctly, workers>1
	// notwithstanding.
	runtime.GOMAXPROCS(1)
	r = NewParallelReader(passthrough{}, bytes.NewReader(stream), 4)
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, parallelData(8<<10)) {
		t.Fatal("fallback decoded wrong bytes")
	}
}

// The fallback is observationally identical to the pool: same bytes, same
// post-EOF stickiness, same read-after-Close error, same cancellation.
// (The alloc win it buys is pinned by TestParallelReaderChunkAllocs, whose
// workers=1 reader now runs through this path.)
func TestParallelReaderSerialFallbackBehaves(t *testing.T) {
	noLeaks(t)
	data := parallelData(64 << 10)
	stream := writeParallel(t, passthrough{}, data, 1024, 4)

	r := NewParallelReader(passthrough{}, bytes.NewReader(stream), 1)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll via fallback: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("fallback decoded %d bytes, want %d identical", len(got), len(data))
	}
	// Post-EOF reads stay io.EOF, as on the pool path.
	if _, err := r.Read(make([]byte, 8)); err != io.EOF {
		t.Fatalf("post-EOF Read err = %v, want io.EOF", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close after EOF: %v", err)
	}

	// Close before EOF poisons subsequent reads with the same error the
	// pool path uses.
	r = NewParallelReader(passthrough{}, bytes.NewReader(stream), 1)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := r.Read(make([]byte, 8)); err == nil || err.Error() != "compress: read after Close" {
		t.Fatalf("read-after-Close err = %v, want the canonical error", err)
	}

	// A cancelled context surfaces before any byte is produced.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r = NewParallelReaderContext(ctx, passthrough{}, bytes.NewReader(stream), DecodeLimits{}, 1)
	defer r.Close()
	if _, err := r.Read(make([]byte, 8)); err != context.Canceled {
		t.Fatalf("cancelled-context Read err = %v, want context.Canceled", err)
	}

	// Truncated input surfaces the shared frame-error taxonomy, not a bare
	// io error, exactly as the pool path does.
	r = NewParallelReader(passthrough{}, bytes.NewReader(stream[:len(stream)-3]), 1)
	defer r.Close()
	if _, err := io.ReadAll(r); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated stream err = %v, want ErrTruncated", err)
	}
}
