package storage

// EnsurePages extends the pager so every page below n exists (recovery may
// replay updates to pages whose allocation was lost in a crash).
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

// EnsurePages extends the file pager so every page below n exists.
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

// WALStore adapts a Pager to the wal.PageStore interface (structurally; this
// package does not import the wal package).
type WALStore struct{ P Pager }

// ReadPage implements wal.PageStore.
func (w WALStore) ReadPage(id uint64, buf []byte) error { return w.P.ReadPage(PageID(id), buf) }

// WritePage implements wal.PageStore.
func (w WALStore) WritePage(id uint64, buf []byte) error { return w.P.WritePage(PageID(id), buf) }

// EnsurePages implements wal.PageStore.
func (w WALStore) EnsurePages(n uint64) error { return w.P.EnsurePages(n) }

// PageSize implements wal.PageStore.
func (w WALStore) PageSize() int { return PageSize }
