package storage

import "fmt"

// Slotted page layout, used by heap tables and the catalog:
//
//	[0:8)   reserved (unused: recovery repeats history without page LSNs)
//	[8:10)  number of slots
//	[10:12) free-space start (end of slot array)
//	[12:14) free-space end (start of cell area)
//	[14:16) flags (unused)
//	slot i: [16+4i : 16+4i+4) = offset(2) | length(2); offset 0 = dead slot
//
// Cells grow downward from the end of the page.

const (
	slottedHeader = 16
	slotSize      = 4
)

// SlottedPage wraps a page buffer with slotted-tuple accessors. It does not
// own the buffer.
type SlottedPage struct{ Buf []byte }

// InitSlotted formats the buffer as an empty slotted page.
func InitSlotted(buf []byte) SlottedPage {
	p := SlottedPage{Buf: buf}
	p.setNumSlots(0)
	p.setFreeStart(slottedHeader)
	p.setFreeEnd(uint16(len(buf)))
	return p
}

func (p SlottedPage) numSlots() int       { return int(be16(p.Buf[8:10])) }
func (p SlottedPage) setNumSlots(n int)   { putBE16(p.Buf[8:10], uint16(n)) }
func (p SlottedPage) freeStart() int      { return int(be16(p.Buf[10:12])) }
func (p SlottedPage) setFreeStart(v int)  { putBE16(p.Buf[10:12], uint16(v)) }
func (p SlottedPage) freeEnd() int        { return int(be16(p.Buf[12:14])) }
func (p SlottedPage) setFreeEnd(v uint16) { putBE16(p.Buf[12:14], v) }

func (p SlottedPage) slot(i int) (off, length int) {
	base := slottedHeader + slotSize*i
	return int(be16(p.Buf[base : base+2])), int(be16(p.Buf[base+2 : base+4]))
}

func (p SlottedPage) setSlot(i, off, length int) {
	base := slottedHeader + slotSize*i
	putBE16(p.Buf[base:base+2], uint16(off))
	putBE16(p.Buf[base+2:base+4], uint16(length))
}

// NumSlots returns the slot count, including dead slots.
func (p SlottedPage) NumSlots() int { return p.numSlots() }

// FreeSpace returns the bytes available for one more insert (accounting for
// its slot entry).
func (p SlottedPage) FreeSpace() int {
	free := p.freeEnd() - p.freeStart() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// NextSlot returns the slot number Insert would assign — the first dead
// slot when one exists, the fresh index otherwise — without mutating the
// page. Callers with bounded slot-number encodings check it before Insert.
func (p SlottedPage) NextSlot() int {
	for i := 0; i < p.numSlots(); i++ {
		if off, _ := p.slot(i); off == 0 {
			return i
		}
	}
	return p.numSlots()
}

// Insert stores data in the page and returns its slot number.
func (p SlottedPage) Insert(data []byte) (int, error) {
	if len(data) > p.FreeSpace() {
		if len(data) <= p.FreeSpace()+p.fragmented() {
			p.compact()
		} else {
			return 0, fmt.Errorf("storage: slotted page full (%d free, %d needed)", p.FreeSpace(), len(data))
		}
	}
	// Reuse a dead slot when available.
	slot := -1
	for i := 0; i < p.numSlots(); i++ {
		if off, _ := p.slot(i); off == 0 {
			slot = i
			break
		}
	}
	if slot == -1 {
		slot = p.numSlots()
		p.setNumSlots(slot + 1)
		p.setFreeStart(p.freeStart() + slotSize)
	}
	off := p.freeEnd() - len(data)
	copy(p.Buf[off:], data)
	p.setFreeEnd(uint16(off))
	p.setSlot(slot, off, len(data))
	return slot, nil
}

// Read returns the tuple bytes at slot (aliasing the page buffer).
func (p SlottedPage) Read(slot int) ([]byte, bool) {
	if slot < 0 || slot >= p.numSlots() {
		return nil, false
	}
	off, length := p.slot(slot)
	if off == 0 {
		return nil, false
	}
	return p.Buf[off : off+length], true
}

// Delete marks the slot dead; its space is reclaimed by compaction.
func (p SlottedPage) Delete(slot int) bool {
	if slot < 0 || slot >= p.numSlots() {
		return false
	}
	if off, _ := p.slot(slot); off == 0 {
		return false
	}
	p.setSlot(slot, 0, 0)
	return true
}

// Update replaces the tuple at slot, keeping the slot number stable.
func (p SlottedPage) Update(slot int, data []byte) error {
	if slot < 0 || slot >= p.numSlots() {
		return fmt.Errorf("storage: update of missing slot %d", slot)
	}
	off, length := p.slot(slot)
	if off == 0 {
		return fmt.Errorf("storage: update of dead slot %d", slot)
	}
	if len(data) <= length {
		copy(p.Buf[off:], data)
		p.setSlot(slot, off, len(data))
		return nil
	}
	// Relocate within the page.
	p.setSlot(slot, 0, 0)
	need := len(data)
	if need > p.freeEnd()-p.freeStart() {
		if need <= p.freeEnd()-p.freeStart()+p.fragmented() {
			p.compact()
		} else {
			p.setSlot(slot, off, length) // restore
			return fmt.Errorf("storage: slotted page full for update")
		}
	}
	noff := p.freeEnd() - len(data)
	copy(p.Buf[noff:], data)
	p.setFreeEnd(uint16(noff))
	p.setSlot(slot, noff, len(data))
	return nil
}

// fragmented returns the bytes held by dead cells below freeEnd.
func (p SlottedPage) fragmented() int {
	used := 0
	for i := 0; i < p.numSlots(); i++ {
		if off, length := p.slot(i); off != 0 {
			used += length
		}
	}
	return len(p.Buf) - p.freeEnd() - used
}

// compact rewrites live cells contiguously at the end of the page.
func (p SlottedPage) compact() {
	type live struct{ slot, off, length int }
	var cells []live
	for i := 0; i < p.numSlots(); i++ {
		if off, length := p.slot(i); off != 0 {
			cells = append(cells, live{i, off, length})
		}
	}
	tmp := make([]byte, len(p.Buf))
	end := len(p.Buf)
	for _, c := range cells {
		end -= c.length
		copy(tmp[end:], p.Buf[c.off:c.off+c.length])
		p.setSlot(c.slot, end, c.length)
	}
	copy(p.Buf[end:], tmp[end:])
	p.setFreeEnd(uint16(end))
}

func be16(b []byte) uint16       { return uint16(b[0])<<8 | uint16(b[1]) }
func putBE16(b []byte, v uint16) { b[0], b[1] = byte(v>>8), byte(v) }
