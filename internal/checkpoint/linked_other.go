//go:build !unix

package checkpoint

import "os"

// linked fails when the file at f's path is no longer the file f holds open.
func linked(f *os.File) error {
	held, err := f.Stat()
	if err != nil {
		return err
	}
	named, err := os.Stat(f.Name())
	if err != nil {
		return err
	}
	if !os.SameFile(held, named) {
		return errUnlinked
	}
	return nil
}
