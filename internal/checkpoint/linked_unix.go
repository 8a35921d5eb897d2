//go:build unix

package checkpoint

import (
	"os"
	"syscall"
)

// linked fails when f's file has no name left: a file removed, or renamed
// over, while f held it open has no links. One fstat into a stack buffer,
// so a steady-state save stays allocation-free.
func linked(f *os.File) error {
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f.Fd()), &st); err != nil {
		return err
	}
	if st.Nlink == 0 {
		return errUnlinked
	}
	return nil
}
