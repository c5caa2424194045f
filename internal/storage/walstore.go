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

// WALStore adapts a bare Pager to the wal.PageStore interface (structurally;
// this package does not import the wal package), for replay with no pool.
type WALStore struct{ P Pager }

// Apply implements wal.PageStore: it writes img at off of page id.
func (w WALStore) Apply(id uint64, off uint16, img []byte) error {
	if err := w.P.EnsurePages(id + 1); err != nil {
		return err
	}
	buf := make([]byte, PageSize)
	if err := w.P.ReadPage(PageID(id), buf); err != nil {
		return err
	}
	if err := applyImage(buf, id, off, img); err != nil {
		return err
	}
	return w.P.WritePage(PageID(id), buf)
}
