package report

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// TestWriteAtomicConcurrentWriters runs several writers of one path at
// once, each writing its own document in small chunks so that the writes
// interleave. Every writer must succeed, the installed file must be one
// writer's complete document, and no temp file may be left behind.
func TestWriteAtomicConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	const writers, chunks = 8, 64
	docs := make([][]byte, writers)
	for i := range docs {
		docs[i] = bytes.Repeat([]byte(fmt.Sprintf("writer %d\n", i)), 1000)
	}
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = WriteAtomic(path, func(w io.Writer) error {
					doc := docs[i]
					step := len(doc) / chunks
					for len(doc) > 0 {
						n := min(step, len(doc))
						if _, err := w.Write(doc[:n]); err != nil {
							return err
						}
						doc = doc[n:]
						runtime.Gosched()
					}
					return nil
				})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: writer %d: %v", round, i, err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		whole := false
		for _, doc := range docs {
			whole = whole || bytes.Equal(got, doc)
		}
		if !whole {
			t.Fatalf("round %d: installed file (%d bytes) is no writer's complete document", round, len(got))
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only doc.json: %v", len(entries), entries)
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
		t.Errorf("installed file mode %v (err %v), want 0644", info.Mode().Perm(), err)
	}
}

// TestWriteAtomicFailureLeavesNothing checks the remove-on-failure path: a
// failing generator installs nothing and leaves no temp file.
func TestWriteAtomicFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	boom := errors.New("boom")
	err := WriteAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteAtomic = %v, want the generator's error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("failed write left %v behind", entries)
	}
}
