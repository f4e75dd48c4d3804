package pmem

import (
	"bytes"
	"errors"
	"testing"

	"github.com/pmemgo/xfdetector/internal/trace"
)

type recordingSink struct{ entries []trace.Entry }

func (s *recordingSink) Record(e trace.Entry) { s.entries = append(s.entries, e) }

func TestSnapshotErrFault(t *testing.T) {
	p := New("faulty", 128)
	p.Store64(0, 42)

	img, err := p.SnapshotErr(0)
	if err != nil || !bytes.Equal(img.Bytes(), p.Bytes()) {
		t.Fatalf("fault-free SnapshotErr: img mismatch or err %v", err)
	}

	cause := errors.New("no memory for image copy")
	var calls []int
	p.SetFaultHooks(&FaultHooks{Snapshot: func(fp int) error { calls = append(calls, fp); return cause }})
	if _, err := p.SnapshotErr(3); err == nil {
		t.Fatal("expected injected snapshot fault")
	} else {
		var hf *HarnessFault
		if !errors.As(err, &hf) || hf.Op != "image-copy" || !errors.Is(err, cause) {
			t.Fatalf("fault not classified as image-copy HarnessFault: %v", err)
		}
	}
	if len(calls) != 1 || calls[0] != 3 {
		t.Fatalf("snapshot hook calls = %v, want one for failure point 3", calls)
	}

	p.SetFaultHooks(nil)
	if _, err := p.SnapshotErr(0); err != nil {
		t.Fatalf("cleared hooks still fault: %v", err)
	}
}

func TestSinkFaultPanicsWithHarnessFault(t *testing.T) {
	p := New("faulty-sink", 128)
	sink := &recordingSink{}
	p.SetSink(sink)
	p.Store64(0, 1) // fault-free: recorded

	cause := errors.New("trace spool full")
	p.SetFaultHooks(&FaultHooks{Sink: func(e trace.Entry) error {
		if e.Kind == trace.Read {
			return cause
		}
		return nil
	}})
	p.Store64(8, 2) // writes still pass the selective hook

	defer func() {
		r := recover()
		hf, ok := r.(*HarnessFault)
		if !ok || hf.Op != "trace-sink" || !errors.Is(hf, cause) {
			t.Fatalf("recover() = %v, want trace-sink *HarnessFault wrapping %v", r, cause)
		}
		if len(sink.entries) != 2 {
			t.Fatalf("recorded entries = %d, want 2 (the faulted read must not reach the sink)", len(sink.entries))
		}
	}()
	p.Load64(0)
	t.Fatal("faulted load did not panic")
}
