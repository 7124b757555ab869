package mem

// Diff encodes the byte ranges of a block that changed relative to its twin
// — the multiple-writer mechanism shared by LRC-family protocols (§2.3).
// Runs are maximal and ordered by offset.
type Diff struct {
	Runs []DiffRun
}

// DiffRun is one contiguous modified byte range within a block.
type DiffRun struct {
	Off  int
	Data []byte
}

// MakeDiff compares a dirty block against its clean twin and returns the
// modified runs. The returned runs alias cur; callers that keep the diff
// beyond the block's next mutation must copy. len(twin) must equal len(cur).
func MakeDiff(twin, cur []byte) Diff {
	if len(twin) != len(cur) {
		panic("mem: MakeDiff length mismatch")
	}
	var d Diff
	i := 0
	for i < len(cur) {
		if twin[i] == cur[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(cur) && twin[j] != cur[j] {
			j++
		}
		d.Runs = append(d.Runs, DiffRun{Off: i, Data: cur[i:j:j]})
		i = j
	}
	return d
}

// DiffInto is MakeDiff followed by Clone, without the allocations: the
// modified runs are appended to runs[:0] and their bytes copied into
// buf[:0], so a steady-state caller reuses the same two slices for every
// diff. buf is grown to the block size up front when too small (a diff's
// payload never exceeds the block) and returned so the caller can keep the
// grown backing; the returned Diff does not alias cur.
func DiffInto(twin, cur []byte, runs []DiffRun, buf []byte) (Diff, []byte) {
	if len(twin) != len(cur) {
		panic("mem: DiffInto length mismatch")
	}
	if cap(buf) < len(cur) {
		buf = make([]byte, 0, len(cur))
	} else {
		buf = buf[:0]
	}
	runs = runs[:0]
	i := 0
	for i < len(cur) {
		if twin[i] == cur[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(cur) && twin[j] != cur[j] {
			j++
		}
		start := len(buf)
		buf = append(buf, cur[i:j]...)
		runs = append(runs, DiffRun{Off: i, Data: buf[start:len(buf):len(buf)]})
		i = j
	}
	return Diff{Runs: runs}, buf
}

// Apply writes the diff's runs into dst (the home copy of the block).
func (d Diff) Apply(dst []byte) {
	for _, r := range d.Runs {
		copy(dst[r.Off:], r.Data)
	}
}

// Empty reports whether no bytes changed.
func (d Diff) Empty() bool { return len(d.Runs) == 0 }

// PayloadBytes returns the number of modified data bytes.
func (d Diff) PayloadBytes() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Data)
	}
	return n
}

// WireBytes returns the encoded size of the diff given the per-run framing
// overhead from the timing model.
func (d Diff) WireBytes(runOverhead int) int {
	return d.PayloadBytes() + runOverhead*len(d.Runs)
}
