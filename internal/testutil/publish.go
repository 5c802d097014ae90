package testutil

import (
	"os"
	"path/filepath"
)

// WriteAtomic publishes a file on a share the way a finished export
// appears: written outside the shared directory (in its parent), then
// renamed in, so a watcher or WaitFor polling the share never lists it
// half-written. Tests that grow a file in place on purpose write it
// directly.
func WriteAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(filepath.Dir(path)), ".publish-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
