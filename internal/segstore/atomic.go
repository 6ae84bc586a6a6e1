package segstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data so that a crash at any point
// leaves either the old file or the complete new one: the bytes go to a
// temp file in the same directory, are fsynced, and only then renamed
// over path. The temp file is removed on every error path.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("segstore: %w", err)
	}
	_, err = tmp.Write(data)
	if err = errors.Join(err, tmp.Sync(), tmp.Close()); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("segstore: write %s: %w", path, err)
	}
	return nil
}
