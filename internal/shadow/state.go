package shadow

// Engine-state serialization for recorded campaigns (internal/record).
//
// A recorded-campaign artifact stores periodic checkpoints of the canonical
// shadow at failure-point boundaries so a shard can fast-forward to its
// first owned failure point instead of replaying the whole pre-failure
// trace. WriteState captures everything the pre-failure state machine
// carries forward — the sparse pages, the pending-line fence fast-path
// map, the interned writer table, the transaction state, and the
// commit-variable records — and ReadState reconstructs an equivalent
// canonical shadow.
//
// The fingerprint cache is derived state and is not serialized: a restored
// page starts with every line hash invalid, so its first fingerprint is
// computed from the restored metadata. That is what gives the replay-side
// fingerprint tripwire its teeth — a checkpoint whose page data was
// altered cannot reproduce the recorded fingerprint through a carried-over
// hash.
//
// Post-failure scratch (postWritten/checked/postGen) is deliberately not
// serialized: it is zero on the recording run, whose post stage never
// executes, and every post-failure check runs on a Fork whose scratch
// starts from a fresh generation anyway. Cold-page compaction state
// (compact.go) is likewise not serialized: the recording pool is
// memory-backed, so compaction is never active while recording, and a
// replaying shard that re-enables it simply starts with empty cold maps —
// compaction is fingerprint-transparent either way.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

const (
	stateMagic   = 0x53444658 // "XFDS"
	stateVersion = 2
)

type stateWriter struct {
	w   *bufio.Writer
	err error
	b   [8]byte
}

func (sw *stateWriter) u8(v uint8) {
	if sw.err == nil {
		sw.err = sw.w.WriteByte(v)
	}
}

func (sw *stateWriter) u32(v uint32) {
	if sw.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(sw.b[:4], v)
	_, sw.err = sw.w.Write(sw.b[:4])
}

func (sw *stateWriter) u64(v uint64) {
	if sw.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(sw.b[:8], v)
	_, sw.err = sw.w.Write(sw.b[:8])
}

func (sw *stateWriter) str(s string) {
	sw.u32(uint32(len(s)))
	if sw.err == nil {
		_, sw.err = sw.w.WriteString(s)
	}
}

func (sw *stateWriter) u32s(a []uint32) {
	if sw.err != nil {
		return
	}
	buf := make([]byte, 4*len(a))
	for i, v := range a {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	_, sw.err = sw.w.Write(buf)
}

func (sw *stateWriter) bools(a []bool) {
	if sw.err != nil {
		return
	}
	buf := make([]byte, len(a))
	for i, v := range a {
		if v {
			buf[i] = 1
		}
	}
	_, sw.err = sw.w.Write(buf)
}

// WriteState serializes the shadow's complete pre-failure state to w.
// Call it on the canonical shadow, not on a fork.
func (s *PM) WriteState(w io.Writer) error {
	sw := &stateWriter{w: bufio.NewWriterSize(w, 1<<16)}
	sw.u32(stateMagic)
	sw.u32(stateVersion)
	sw.u64(s.size)
	sw.u32(s.clock)
	sw.u32(uint32(s.txDepth))
	sw.u32(s.txGen)

	sw.u32(uint32(len(s.writers)))
	for _, ip := range s.writers {
		sw.str(ip)
	}

	sw.u32(uint32(len(s.pendingLines)))
	for line, full := range s.pendingLines {
		sw.u64(line)
		if full {
			sw.u8(1)
		} else {
			sw.u8(0)
		}
	}

	sw.u32(uint32(len(s.curTx)))
	for _, r := range s.curTx {
		sw.u64(r.addr)
		sw.u64(r.size)
	}

	sw.u32(uint32(len(s.commitVars)))
	for _, cv := range s.commitVars {
		sw.u64(cv.addr)
		sw.u64(cv.size)
		sw.u32(cv.last.writeEpoch)
		sw.u32(cv.last.persistEpoch)
		sw.u32(cv.prev.writeEpoch)
		sw.u32(cv.prev.persistEpoch)
		sw.u64(uint64(cv.nWrites))
		if cv.pendingPersist {
			sw.u8(1)
		} else {
			sw.u8(0)
		}
	}

	sw.u32(uint32(len(s.assocs)))
	for _, a := range s.assocs {
		sw.u32(uint32(a.varIdx))
		sw.u64(a.addr)
		sw.u64(a.size)
	}

	nPages := uint32(0)
	for _, pg := range s.pages {
		if pg != nil {
			nPages++
		}
	}
	sw.u32(nPages)
	for pi, pg := range s.pages {
		if pg == nil {
			continue
		}
		sw.u32(uint32(pi))
		if sw.err == nil {
			_, sw.err = sw.w.Write(stateBytes(pg.state[:]))
		}
		sw.u32s(pg.writeEpoch[:])
		sw.u32s(pg.persistEpoch[:])
		sw.u32s(pg.writerIdx[:])
		sw.bools(pg.txSafe[:])
		sw.u32s(pg.txAddGen[:])
		sw.u32s(pg.txExplicit[:])
		if pg.anyTxSafe {
			sw.u8(1)
		} else {
			sw.u8(0)
		}
	}
	if sw.err != nil {
		return fmt.Errorf("shadow: writing state: %w", sw.err)
	}
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("shadow: writing state: %w", err)
	}
	return nil
}

// stateBytes views a PersistState slice as raw bytes (PersistState is a
// uint8 with identical memory layout).
func stateBytes(a []PersistState) []byte {
	b := make([]byte, len(a))
	for i, v := range a {
		b[i] = byte(v)
	}
	return b
}

type stateReader struct {
	r   *bufio.Reader
	err error
	b   [8]byte
}

func (sr *stateReader) u8() uint8 {
	if sr.err != nil {
		return 0
	}
	v, err := sr.r.ReadByte()
	sr.err = err
	return v
}

func (sr *stateReader) u32() uint32 {
	if sr.err != nil {
		return 0
	}
	if _, sr.err = io.ReadFull(sr.r, sr.b[:4]); sr.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(sr.b[:4])
}

func (sr *stateReader) u64() uint64 {
	if sr.err != nil {
		return 0
	}
	if _, sr.err = io.ReadFull(sr.r, sr.b[:8]); sr.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(sr.b[:8])
}

func (sr *stateReader) str() string {
	n := sr.u32()
	if sr.err != nil {
		return ""
	}
	if n > 1<<20 {
		sr.err = fmt.Errorf("string length %d too large", n)
		return ""
	}
	buf := make([]byte, n)
	if _, sr.err = io.ReadFull(sr.r, buf); sr.err != nil {
		return ""
	}
	return string(buf)
}

func (sr *stateReader) u32s(a []uint32) {
	if sr.err != nil {
		return
	}
	buf := make([]byte, 4*len(a))
	if _, sr.err = io.ReadFull(sr.r, buf); sr.err != nil {
		return
	}
	for i := range a {
		a[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
}

func (sr *stateReader) bools(a []bool) {
	if sr.err != nil {
		return
	}
	buf := make([]byte, len(a))
	if _, sr.err = io.ReadFull(sr.r, buf); sr.err != nil {
		return
	}
	for i := range a {
		a[i] = buf[i] != 0
	}
}

// ReadState reconstructs a canonical sparse shadow from a WriteState
// stream.
func ReadState(r io.Reader) (*PM, error) {
	sr := &stateReader{r: bufio.NewReaderSize(r, 1<<16)}
	if m := sr.u32(); sr.err == nil && m != stateMagic {
		return nil, fmt.Errorf("shadow: bad state magic 0x%x", m)
	}
	if v := sr.u32(); sr.err == nil && v != stateVersion {
		return nil, fmt.Errorf("shadow: unsupported state version %d", v)
	}
	size := sr.u64()
	if sr.err == nil && (size == 0 || size > 1<<40) {
		return nil, fmt.Errorf("shadow: implausible pool size %d", size)
	}
	if sr.err != nil {
		return nil, fmt.Errorf("shadow: reading state: %w", sr.err)
	}
	s := NewPM(size)
	s.clock = sr.u32()
	s.txDepth = int(sr.u32())
	s.txGen = sr.u32()

	nWriters := sr.u32()
	for i := uint32(0); i < nWriters && sr.err == nil; i++ {
		ip := sr.str()
		s.writers = append(s.writers, ip)
		s.writerIDs[ip] = uint32(len(s.writers)) // 1-based, order-preserving
	}

	nPending := sr.u32()
	for i := uint32(0); i < nPending && sr.err == nil; i++ {
		line := sr.u64()
		s.pendingLines[line] = sr.u8() != 0
	}

	nTx := sr.u32()
	for i := uint32(0); i < nTx && sr.err == nil; i++ {
		addr := sr.u64()
		sz := sr.u64()
		s.curTx = append(s.curTx, txRange{addr: addr, size: sz})
	}

	nCV := sr.u32()
	for i := uint32(0); i < nCV && sr.err == nil; i++ {
		cv := &commitVar{addr: sr.u64(), size: sr.u64()}
		cv.last = commitWrite{writeEpoch: sr.u32(), persistEpoch: sr.u32()}
		cv.prev = commitWrite{writeEpoch: sr.u32(), persistEpoch: sr.u32()}
		cv.nWrites = int(sr.u64())
		cv.pendingPersist = sr.u8() != 0
		s.commitVars = append(s.commitVars, cv)
	}

	nAssoc := sr.u32()
	for i := uint32(0); i < nAssoc && sr.err == nil; i++ {
		a := assoc{varIdx: int(sr.u32()), addr: sr.u64(), size: sr.u64()}
		if sr.err == nil && (a.varIdx < 0 || a.varIdx >= len(s.commitVars)) {
			return nil, fmt.Errorf("shadow: assoc references commit variable %d of %d", a.varIdx, len(s.commitVars))
		}
		s.assocs = append(s.assocs, a)
	}

	nPages := sr.u32()
	if sr.err == nil && int(nPages) > len(s.pages) {
		return nil, fmt.Errorf("shadow: %d pages for a pool of %d slots", nPages, len(s.pages))
	}
	for i := uint32(0); i < nPages && sr.err == nil; i++ {
		pi := sr.u32()
		if sr.err == nil && int(pi) >= len(s.pages) {
			return nil, fmt.Errorf("shadow: page index %d outside pool of %d pages", pi, len(s.pages))
		}
		if sr.err != nil {
			break
		}
		pg := s.newPage()
		stateBuf := make([]byte, pageBytes)
		if _, sr.err = io.ReadFull(sr.r, stateBuf); sr.err != nil {
			break
		}
		for j, b := range stateBuf {
			pg.state[j] = PersistState(b)
		}
		sr.u32s(pg.writeEpoch[:])
		sr.u32s(pg.persistEpoch[:])
		sr.u32s(pg.writerIdx[:])
		sr.bools(pg.txSafe[:])
		sr.u32s(pg.txAddGen[:])
		sr.u32s(pg.txExplicit[:])
		pg.anyTxSafe = sr.u8() != 0
		if s.pages[pi] != nil {
			return nil, fmt.Errorf("shadow: page index %d serialized twice", pi)
		}
		s.setPage(int(pi), pg)
	}
	if sr.err != nil {
		return nil, fmt.Errorf("shadow: reading state: %w", sr.err)
	}
	return s, nil
}
