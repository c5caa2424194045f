// Package storage provides the page-oriented storage substrate of the
// engine: pagers (file-backed and in-memory), a pinning buffer pool with
// LRU replacement and I/O statistics, and slotted data pages. Heap tables,
// sbspaces (and therefore every virtual index stored in them), and the
// system catalogs all sit on this layer; the I/O counters it maintains are
// the measurements reported by the benchmark harness.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// PageSize is the size of every page in bytes. A GR-tree or R*-tree node
// occupies exactly one page (Section 3: "a node ... is stored in one disk
// page").
const PageSize = 4096

// PageID identifies a page within one pager. Page 0 is reserved by every
// pager for its own metadata; callers receive IDs starting at 1.
type PageID uint64

// InvalidPage is the zero PageID, never handed out for data.
const InvalidPage PageID = 0

// ErrPageOutOfRange is returned for reads or writes past the allocated end.
var ErrPageOutOfRange = errors.New("storage: page out of range")

// Pager is the raw page store interface: fixed-size page allocation, reads,
// writes, and a free list.
type Pager interface {
	// Allocate returns a zeroed page, reusing freed pages when possible.
	Allocate() (PageID, error)
	// ReadPage fills buf (len PageSize) with the page's contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (len PageSize) as the page's contents.
	WritePage(id PageID, buf []byte) error
	// Free returns a page to the free list.
	Free(id PageID) error
	// NumPages returns the number of pages ever allocated (upper bound on
	// live pages).
	NumPages() uint64
	// EnsurePages extends the store so every page below n exists (recovery
	// may replay updates to pages whose allocation was lost in a crash).
	EnsurePages(n uint64) error
	// Sync forces durable storage, where applicable.
	Sync() error
	// Close releases the pager.
	Close() error
}

// MemPager is an in-memory pager, used by tests, benchmarks, and transient
// spaces.
type MemPager struct {
	mu    sync.Mutex
	pages [][]byte
	free  []PageID
}

// NewMemPager returns an empty in-memory pager.
func NewMemPager() *MemPager {
	return &MemPager{pages: make([][]byte, 1)} // page 0 reserved
}

// Allocate implements Pager.
func (m *MemPager) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		m.pages[id] = make([]byte, PageSize)
		return id, nil
	}
	m.pages = append(m.pages, make([]byte, PageSize))
	return PageID(len(m.pages) - 1), nil
}

// ReadPage implements Pager.
func (m *MemPager) ReadPage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) <= 0 || int(id) >= len(m.pages) || m.pages[id] == nil {
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	copy(buf, m.pages[id])
	return nil
}

// WritePage implements Pager.
func (m *MemPager) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) <= 0 || int(id) >= len(m.pages) || m.pages[id] == nil {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	copy(m.pages[id], buf)
	return nil
}

// Free implements Pager.
func (m *MemPager) Free(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) <= 0 || int(id) >= len(m.pages) || m.pages[id] == nil {
		return fmt.Errorf("%w: free %d", ErrPageOutOfRange, id)
	}
	m.pages[id] = nil
	m.free = append(m.free, id)
	return nil
}

// NumPages implements Pager.
func (m *MemPager) NumPages() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(len(m.pages))
}

// EnsurePages implements Pager.
func (m *MemPager) EnsurePages(n uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for uint64(len(m.pages)) < n {
		m.pages = append(m.pages, make([]byte, PageSize))
	}
	for i := uint64(1); i < n; i++ {
		if m.pages[i] == nil {
			m.pages[i] = make([]byte, PageSize)
		}
	}
	return nil
}

// Sync implements Pager (a no-op in memory).
func (m *MemPager) Sync() error { return nil }

// Close implements Pager.
func (m *MemPager) Close() error { return nil }

// FilePager stores pages in a single operating-system file. Page 0 holds the
// pager header (magic, page count, free-list head); freed pages are chained
// through their first 8 bytes.
type FilePager struct {
	mu       sync.Mutex
	f        *os.File
	numPages uint64 // including page 0
	freeHead PageID
}

const filePagerMagic = 0x47525442 // "GRTB"

// OpenFilePager opens or creates a file-backed pager at path.
func OpenFilePager(path string) (*FilePager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open pager: %w", err)
	}
	p := &FilePager{f: f}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		p.numPages = 1
		err := p.writeHeader()
		if err == nil {
			err = syncDir(filepath.Dir(path))
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		return p, nil
	}
	var hdr [PageSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil && err != io.EOF {
		f.Close()
		return nil, err
	}
	if be32(hdr[0:4]) != filePagerMagic {
		f.Close()
		return nil, fmt.Errorf("storage: %s is not a pager file", path)
	}
	p.numPages = be64(hdr[8:16])
	p.freeHead = PageID(be64(hdr[16:24]))
	return p, nil
}

func (p *FilePager) writeHeader() error {
	var hdr [PageSize]byte
	putBE32(hdr[0:4], filePagerMagic)
	putBE64(hdr[8:16], p.numPages)
	putBE64(hdr[16:24], uint64(p.freeHead))
	_, err := p.f.WriteAt(hdr[:], 0)
	return err
}

// Allocate implements Pager.
func (p *FilePager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	zero := make([]byte, PageSize)
	if p.freeHead != InvalidPage {
		id := p.freeHead
		var buf [8]byte
		if _, err := p.f.ReadAt(buf[:], int64(id)*PageSize); err != nil {
			return InvalidPage, err
		}
		p.freeHead = PageID(be64(buf[:]))
		if _, err := p.f.WriteAt(zero, int64(id)*PageSize); err != nil {
			return InvalidPage, err
		}
		return id, p.writeHeader()
	}
	id := PageID(p.numPages)
	p.numPages++
	if _, err := p.f.WriteAt(zero, int64(id)*PageSize); err != nil {
		return InvalidPage, err
	}
	return id, p.writeHeader()
}

// ReadPage implements Pager.
func (p *FilePager) ReadPage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == InvalidPage || uint64(id) >= p.numPages {
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, p.numPages)
	}
	_, err := p.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// WritePage implements Pager.
func (p *FilePager) WritePage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == InvalidPage || uint64(id) >= p.numPages {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, p.numPages)
	}
	_, err := p.f.WriteAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// Free implements Pager.
func (p *FilePager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == InvalidPage || uint64(id) >= p.numPages {
		return fmt.Errorf("%w: free %d", ErrPageOutOfRange, id)
	}
	var buf [8]byte
	putBE64(buf[:], uint64(p.freeHead))
	if _, err := p.f.WriteAt(buf[:], int64(id)*PageSize); err != nil {
		return err
	}
	p.freeHead = id
	return p.writeHeader()
}

// NumPages implements Pager.
func (p *FilePager) NumPages() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.numPages
}

// EnsurePages implements Pager.
func (p *FilePager) EnsurePages(n uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.numPages >= n {
		return nil
	}
	zero := make([]byte, PageSize)
	for p.numPages < n {
		if _, err := p.f.WriteAt(zero, int64(p.numPages)*PageSize); err != nil {
			return err
		}
		p.numPages++
	}
	return p.writeHeader()
}

// Sync implements Pager.
func (p *FilePager) Sync() error { return p.f.Sync() }

// Close implements Pager.
func (p *FilePager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.writeHeader(); err != nil {
		p.f.Close()
		return err
	}
	return p.f.Close()
}

// syncDir makes dir's entries durable: a file created in it survives a crash
// only once the directory is fsynced (fsync(2)). Tests replace it to see
// where it is called.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	return err
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func putBE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

func be64(b []byte) uint64 {
	return uint64(be32(b[0:4]))<<32 | uint64(be32(b[4:8]))
}

func putBE64(b []byte, v uint64) {
	putBE32(b[0:4], uint32(v>>32))
	putBE32(b[4:8], uint32(v))
}
