package heapfile

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/storage"
)

// ManifestMagic identifies a heap directory manifest.
const ManifestMagic = "MOAHEAP1"

// manifestName is the manifest file within a heap directory. Its presence
// (complete and CRC'd by JSON well-formedness + magic) is the directory's
// commit point: column files land first, each temp+fsync+rename'd, the
// manifest last.
const manifestName = "MANIFEST.json"

// FileInfo describes one column file in a heap directory.
type FileInfo struct {
	Name  string `json:"name"`  // logical part name, e.g. "Order_date.tail"
	File  string `json:"file"`  // file name within the directory
	Bytes int64  `json:"bytes"` // exact file size
	CRC   uint32 `json:"crc"`   // CRC-32C of the contents
}

// Manifest is the heap directory's table of contents.
type Manifest struct {
	Magic     string          `json:"magic"`
	ByteOrder string          `json:"byteOrder"` // host order at write time
	Meta      json.RawMessage `json:"meta,omitempty"`
	Files     []FileInfo      `json:"files"`
}

// Lookup finds a file entry by logical name.
func (m *Manifest) Lookup(name string) (FileInfo, bool) {
	for _, fi := range m.Files {
		if fi.Name == name {
			return fi, true
		}
	}
	return FileInfo{}, false
}

// fileNameFor maps a logical part name to an on-disk file name. Part names
// come from BAT names (identifier characters plus the ".head"/".tail"/
// ".chars" suffixes), so a conservative whitelist suffices; anything else
// is rejected rather than escaped.
func fileNameFor(name string) (string, error) {
	if name == "" || name == manifestName {
		return "", fmt.Errorf("heapfile: invalid part name %q", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '.', r == '-':
		default:
			return "", fmt.Errorf("heapfile: invalid part name %q", name)
		}
	}
	return name + ".heap", nil
}

// Writer assembles a heap directory: column files first (Put/Borrow), then
// Commit writes the manifest, which atomically publishes the directory's
// contents. A directory without a manifest is an aborted write and Open
// refuses it.
type Writer struct {
	dir string
	man Manifest
}

// NewWriter starts a heap directory at dir (created if missing). meta is
// an opaque caller payload stored in the manifest (schema and epoch info).
func NewWriter(dir string, meta json.RawMessage) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Writer{dir: dir, man: Manifest{Magic: ManifestMagic, ByteOrder: hostByteOrder(), Meta: meta}}, nil
}

// Dir reports the directory being written.
func (w *Writer) Dir() string { return w.dir }

// Manifest exposes the table of contents assembled so far. Checkpointers
// keep it after Commit as the Borrow source for the next copy-on-write
// checkpoint.
func (w *Writer) Manifest() *Manifest { return &w.man }

// Put writes one column part (temp file, fsync, rename to its final name)
// and records its CRC for the manifest.
func (w *Writer) Put(name string, data []byte) error {
	fname, err := fileNameFor(name)
	if err != nil {
		return err
	}
	if _, dup := w.man.Lookup(name); dup {
		return fmt.Errorf("heapfile: duplicate part %q", name)
	}
	if err := publishBytes(filepath.Join(w.dir, fname), data); err != nil {
		return err
	}
	w.man.Files = append(w.man.Files, FileInfo{
		Name: name, File: fname, Bytes: int64(len(data)),
		CRC: crc32Of(data),
	})
	return nil
}

// Borrow publishes a part whose bytes are unchanged since a previous heap
// directory: the file is hard-linked from srcDir (copy-on-write at the
// checkpoint level — only touched families get rewritten; everything else
// shares the inode, and with it the page cache and any live mapping).
// Falls back to a byte copy when linking fails.
func (w *Writer) Borrow(name string, srcDir string, fi FileInfo) error {
	fname, err := fileNameFor(name)
	if err != nil {
		return err
	}
	if _, dup := w.man.Lookup(name); dup {
		return fmt.Errorf("heapfile: duplicate part %q", name)
	}
	src := filepath.Join(srcDir, fi.File)
	dst := filepath.Join(w.dir, fname)
	if err := os.Link(src, dst); err != nil {
		if copyErr := copyFile(src, dst); copyErr != nil {
			return errors.Join(err, copyErr)
		}
	}
	w.man.Files = append(w.man.Files, FileInfo{Name: name, File: fname, Bytes: fi.Bytes, CRC: fi.CRC})
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return publishFile(dst, func(out io.Writer) error {
		_, err := io.Copy(out, in)
		return err
	})
}

// publishFile writes path atomically: fill a temp file, fsync it, close it
// and rename it to path. On any failure the temp file is removed and path
// is left as it was.
func publishFile(path string, fill func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func publishBytes(path string, data []byte) error {
	return publishFile(path, func(out io.Writer) error {
		_, err := out.Write(data)
		return err
	})
}

// Commit writes the manifest (temp+fsync+rename) and fsyncs the directory,
// making every Put/Borrow since NewWriter durable and visible to Open.
func (w *Writer) Commit() error {
	sort.Slice(w.man.Files, func(i, j int) bool { return w.man.Files[i].Name < w.man.Files[j].Name })
	data, err := json.MarshalIndent(&w.man, "", "  ")
	if err != nil {
		return err
	}
	if err := publishBytes(filepath.Join(w.dir, manifestName), data); err != nil {
		return err
	}
	return syncDir(w.dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func crc32Of(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}

// Store is an open heap directory: the manifest plus one read-only Mapping
// per column file, registered with the process residency registry until
// Close.
type Store struct {
	dir    string
	man    *Manifest
	maps   map[string]*Mapping
	unreg  func()
	closed atomic.Bool
}

// Open maps every column file named by dir's manifest. Missing manifest,
// byte-order mismatch, size mismatch or CRC mismatch fail the open —
// callers fall back to an older checkpoint or a rebuild.
func Open(dir string) (*Store, error) { return open(dir, false) }

// open is Open with the portable read path forced when read is set, so
// the tests cover that path on hosts that can map.
func open(dir string, read bool) (*Store, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, man: man, maps: make(map[string]*Mapping, len(man.Files))}
	for _, fi := range man.Files {
		m, err := openMapping(filepath.Join(dir, fi.File), fi.Bytes, read)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("heapfile: open %s: %w", fi.Name, err)
		}
		s.maps[fi.Name] = m
		// Verification streams each mapping once (with sequential
		// advice), so it warms the page cache as much as it checks.
		m.Advise(storage.AdviceSequential, 0, fi.Bytes)
		if got := crc32Of(m.Bytes()); got != fi.CRC {
			s.Close()
			return nil, fmt.Errorf("heapfile: %s: CRC mismatch (file %08x, manifest %08x)", fi.Name, got, fi.CRC)
		}
	}
	s.unreg = storage.RegisterResidency(s.Resident)
	return s, nil
}

// ReadManifest loads and validates dir's manifest without mapping anything.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("heapfile: corrupt manifest in %s: %w", dir, err)
	}
	if man.Magic != ManifestMagic {
		return nil, fmt.Errorf("heapfile: %s: bad manifest magic %q", dir, man.Magic)
	}
	if man.ByteOrder != hostByteOrder() {
		return nil, fmt.Errorf("heapfile: %s: %s-endian heap on a %s-endian host", dir, man.ByteOrder, hostByteOrder())
	}
	return &man, nil
}

// Dir reports the directory the store was opened from.
func (s *Store) Dir() string { return s.dir }

// Manifest exposes the directory's table of contents (read-only).
func (s *Store) Manifest() *Manifest { return s.man }

// Mapping returns the mapping for a logical part name, or nil.
func (s *Store) Mapping(name string) *Mapping { return s.maps[name] }

// Resident sums residency over every mapping in the store (a
// storage.ResidencyProbe).
func (s *Store) Resident() (mappedBytes, residentBytes int64, probed bool) {
	if s == nil || s.closed.Load() {
		return 0, 0, false
	}
	// Iterate the manifest (ordered) rather than the map for determinism.
	for _, fi := range s.man.Files {
		m := s.maps[fi.Name]
		if m == nil {
			continue
		}
		mb, rb, ok := m.Resident()
		mappedBytes += mb
		residentBytes += rb
		probed = probed || ok
	}
	return mappedBytes, residentBytes, probed
}

// Close unmaps every column and unregisters the residency probe. The
// caller must ensure no typed views over the store's mappings are live —
// in the engine that is guaranteed by epoch pinning.
func (s *Store) Close() error {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.unreg != nil {
		s.unreg()
	}
	var err error
	for _, m := range s.maps {
		if cerr := m.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// IsHeapDir reports whether dir holds a committed heap directory (its
// manifest exists — the commit point of Writer.Commit).
func IsHeapDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}
