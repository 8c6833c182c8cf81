package heapfile

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/storage"
)

// ManifestMagic identifies a heap directory manifest.
const ManifestMagic = "MOAHEAP1"

// manifestName is the manifest file within a heap directory. Its presence
// (complete and CRC'd by JSON well-formedness + magic) is the directory's
// commit point: the pack lands first (fsync + rename), the manifest last.
const manifestName = "MANIFEST.json"

// packSuffix names a writer's pack file: <dir>.pack for a directory dir
// (a dir assembled under a ".tmp" name packs as its final name).
const packSuffix = ".pack"

// FileInfo describes one column part in a heap directory: a byte range of
// one of its files. A Writer puts every part it writes into its pack at a
// page-aligned Off; a part it borrows keeps the file and offset it had in
// the lending directory. The earlier layout gave each part a file of its
// own, with no "off" recorded: a missing off reads as 0, so those
// directories open and lend parts unchanged. An empty part names no file.
type FileInfo struct {
	Name  string `json:"name"`          // logical part name, e.g. "Order_date.tail"
	File  string `json:"file"`          // file within the directory that holds the part
	Off   int64  `json:"off,omitempty"` // byte offset of the part in File
	Bytes int64  `json:"bytes"`         // exact part size
	CRC   uint32 `json:"crc"`           // CRC-32C of the part's bytes
}

// Manifest is the heap directory's table of contents.
type Manifest struct {
	Magic     string          `json:"magic"`
	ByteOrder string          `json:"byteOrder"` // host order at write time
	Meta      json.RawMessage `json:"meta,omitempty"`
	Files     []FileInfo      `json:"files"`
}

// Lookup finds a part's entry by logical name.
func (m *Manifest) Lookup(name string) (FileInfo, bool) {
	for _, fi := range m.Files {
		if fi.Name == name {
			return fi, true
		}
	}
	return FileInfo{}, false
}

// committedWritten and committedLinked count the part bytes of every
// committed Writer in the process: written into its pack, or linked from a
// lending directory (moaserve_checkpoint_bytes_total).
var committedWritten, committedLinked atomic.Int64

// CommittedBytes reports the part bytes committed by Writers since process
// start, split by how each part got into its directory: written (into the
// writer's pack, copy fallbacks included) or linked (borrowed by hard link).
// For each commit the two add up to the Bytes of its manifest's parts.
func CommittedBytes() (written, linked int64) {
	return committedWritten.Load(), committedLinked.Load()
}

// Writer assembles a heap directory: Put streams parts into the
// directory's one pack file, Borrow links parts of an earlier directory,
// and Commit makes the pack durable and then writes the manifest, which
// atomically publishes the directory's contents. A directory without a
// manifest is an aborted write and Open refuses it.
type Writer struct {
	dir      string
	man      Manifest
	packName string
	pack     *os.File        // <packName>.tmp, nil until the first non-empty Put
	end      int64           // bytes used in the pack
	links    map[string]bool // source paths linked into dir
	written  int64           // part bytes Put into the pack
	linked   int64           // part bytes borrowed by link

	// BeforeManifest, when set, runs in Commit once the pack is durable
	// under its final name and before the manifest is written: the
	// crash-injection point between the two.
	BeforeManifest func()
}

// NewWriter starts a heap directory at dir (created if missing). meta is
// an opaque caller payload stored in the manifest (schema and epoch info).
func NewWriter(dir string, meta json.RawMessage) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Writer{
		dir:      dir,
		man:      Manifest{Magic: ManifestMagic, ByteOrder: hostByteOrder(), Meta: meta},
		packName: strings.TrimSuffix(filepath.Base(dir), ".tmp") + packSuffix,
		links:    map[string]bool{},
	}, nil
}

// Dir reports the directory being written.
func (w *Writer) Dir() string { return w.dir }

// Manifest exposes the table of contents assembled so far. Checkpointers
// keep it after Commit as the Borrow source for the next copy-on-write
// checkpoint.
func (w *Writer) Manifest() *Manifest { return &w.man }

func (w *Writer) add(fi FileInfo) error {
	if fi.Name == "" {
		return fmt.Errorf("heapfile: empty part name")
	}
	if _, dup := w.man.Lookup(fi.Name); dup {
		return fmt.Errorf("heapfile: duplicate part %q", fi.Name)
	}
	w.man.Files = append(w.man.Files, fi)
	return nil
}

// Put writes one column part into the pack at the next page-aligned offset
// and records its CRC for the manifest. The pack becomes durable in Commit.
// An empty part takes no pack space.
func (w *Writer) Put(name string, data []byte) error {
	fi := FileInfo{Name: name, Bytes: int64(len(data)), CRC: crc32Of(data)}
	if len(data) > 0 {
		fi.File = w.packName
		fi.Off = alignUp(w.end)
	}
	if err := w.add(fi); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	if w.pack == nil {
		f, err := os.OpenFile(filepath.Join(w.dir, w.packName+".tmp"), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		w.pack = f
	}
	if _, err := w.pack.WriteAt(data, fi.Off); err != nil {
		return err
	}
	w.end = fi.Off + fi.Bytes
	w.written += fi.Bytes
	return nil
}

// alignUp rounds off up to the next page boundary, so every part starts on
// a page of its own: typed views are aligned and mincore spans are exact.
func alignUp(off int64) int64 {
	pg := int64(pageSize())
	return (off + pg - 1) / pg * pg
}

// Borrow publishes a part whose bytes are unchanged since a previous heap
// directory: the part's file is hard-linked from srcDir, once however many
// parts it lends (copy-on-write at the checkpoint level — only touched
// families get rewritten; everything else shares the inode, and with it
// the page cache and any live mapping). When linking fails (the name is
// taken in dir, by another source's file or a stale one) or the file would
// land on this writer's own pack, the part's bytes are copied into the
// pack instead, checked against fi.CRC.
func (w *Writer) Borrow(name string, srcDir string, fi FileInfo) error {
	if fi.Bytes == 0 {
		return w.add(FileInfo{Name: name, CRC: fi.CRC})
	}
	src := filepath.Join(srcDir, fi.File)
	if !w.links[src] {
		if fi.File == w.packName || os.Link(src, filepath.Join(w.dir, fi.File)) != nil {
			return w.copyPart(name, src, fi)
		}
		w.links[src] = true
	}
	if err := w.add(FileInfo{Name: name, File: fi.File, Off: fi.Off, Bytes: fi.Bytes, CRC: fi.CRC}); err != nil {
		return err
	}
	w.linked += fi.Bytes
	return nil
}

// copyPart is Borrow's fallback: read the part out of src and Put it.
func (w *Writer) copyPart(name, src string, fi FileInfo) error {
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	data := make([]byte, fi.Bytes)
	if _, err := f.ReadAt(data, fi.Off); err != nil {
		return fmt.Errorf("heapfile: copy %s from %s: %w", name, src, err)
	}
	if got := crc32Of(data); got != fi.CRC {
		return fmt.Errorf("heapfile: copy %s from %s: CRC mismatch (file %08x, manifest %08x)", name, src, got, fi.CRC)
	}
	return w.Put(name, data)
}

// Abort closes and removes an uncommitted pack. It does nothing after
// Commit, so a caller may defer it right after NewWriter.
func (w *Writer) Abort() {
	if w.pack != nil {
		w.pack.Close()
		os.Remove(w.pack.Name())
		w.pack = nil
	}
}

// Commit makes the directory durable and visible to Open, in three steps:
// fsync the pack and rename it to its final name, publish the manifest
// (temp+fsync+rename), fsync the directory.
func (w *Writer) Commit() error {
	if w.pack != nil {
		f := w.pack
		w.pack = nil
		err := f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(f.Name(), filepath.Join(w.dir, w.packName))
		}
		if err != nil {
			os.Remove(f.Name())
			return err
		}
	}
	if w.BeforeManifest != nil {
		w.BeforeManifest()
	}
	sort.Slice(w.man.Files, func(i, j int) bool { return w.man.Files[i].Name < w.man.Files[j].Name })
	data, err := json.MarshalIndent(&w.man, "", "  ")
	if err != nil {
		return err
	}
	if err := publishBytes(filepath.Join(w.dir, manifestName), data); err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	committedWritten.Add(w.written)
	committedLinked.Add(w.linked)
	return nil
}

// publishBytes writes path atomically: fill a temp file, fsync it, close
// it and rename it to path. On any failure the temp file is removed and
// path is left as it was.
func publishBytes(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
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

// Store is an open heap directory: the manifest, one read-only mapping per
// distinct file it names, and one sub-range Mapping per column part,
// registered with the process residency registry until Close.
type Store struct {
	dir    string
	man    *Manifest
	files  []*Mapping          // whole-file mappings, unmapped by Close
	maps   map[string]*Mapping // part name → its range of a file mapping
	unreg  func()
	closed atomic.Bool
}

// Open maps every file named by dir's manifest, once each, and carves each
// column part out of its file. Missing manifest, byte-order mismatch, a
// part past its file's end or a CRC mismatch fail the open — callers fall
// back to an older checkpoint or a rebuild.
func Open(dir string) (*Store, error) { return open(dir, false) }

// open is Open with the portable read path forced when read is set, so
// the tests cover that path on hosts that can map.
func open(dir string, read bool) (*Store, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, man: man, maps: make(map[string]*Mapping, len(man.Files))}
	fail := func(err error) (*Store, error) {
		s.Close()
		return nil, err
	}
	byName := map[string]*Mapping{}
	for _, fi := range man.Files {
		if fi.Bytes == 0 {
			s.maps[fi.Name] = &Mapping{}
			continue
		}
		f := byName[fi.File]
		if f == nil {
			if f, err = openMapping(filepath.Join(dir, fi.File), read); err != nil {
				return fail(fmt.Errorf("heapfile: open %s: %w", fi.Name, err))
			}
			byName[fi.File] = f
			s.files = append(s.files, f)
		}
		size := int64(len(f.data))
		if fi.Off < 0 || fi.Off%8 != 0 || fi.Bytes > size || fi.Off > size-fi.Bytes {
			return fail(fmt.Errorf("heapfile: %s: manifest says bytes [%d,%d) of %s, which holds %d",
				fi.Name, fi.Off, fi.Off+fi.Bytes, fi.File, size))
		}
		m := &Mapping{data: f.data[fi.Off : fi.Off+fi.Bytes : fi.Off+fi.Bytes], mapped: f.mapped, part: true}
		s.maps[fi.Name] = m
		// Verification streams each part once, so it warms the page cache
		// as much as it checks.
		if got := crc32Of(m.Bytes()); got != fi.CRC {
			return fail(fmt.Errorf("heapfile: %s: CRC mismatch (file %08x, manifest %08x)", fi.Name, got, fi.CRC))
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
	for _, fi := range man.Files {
		if fi.Bytes > 0 && (fi.File == manifestName || filepath.Base(fi.File) != fi.File || fi.File == "." || fi.File == "..") {
			return nil, fmt.Errorf("heapfile: %s: part %s names file %q", dir, fi.Name, fi.File)
		}
	}
	return &man, nil
}

// Dir reports the directory the store was opened from.
func (s *Store) Dir() string { return s.dir }

// Manifest exposes the directory's table of contents (read-only).
func (s *Store) Manifest() *Manifest { return s.man }

// Mapping returns the mapping for a logical part name, or nil.
func (s *Store) Mapping(name string) *Mapping { return s.maps[name] }

// Resident sums residency over every part in the store (a
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

// Close retires every part, unmaps every file and unregisters the
// residency probe. The caller must ensure no typed views over the store's
// mappings are live — in the engine that is guaranteed by epoch pinning.
func (s *Store) Close() error {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.unreg != nil {
		s.unreg()
	}
	for _, m := range s.maps {
		m.Close()
	}
	var err error
	for _, f := range s.files {
		if cerr := f.Close(); cerr != nil && err == nil {
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
