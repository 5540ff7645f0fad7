//go:build linux || darwin

package jobs

import "syscall"

// freeBytes is the space statfs says an unprivileged writer may still
// fill on the file system holding dir.
func freeBytes(dir string) (int64, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0, err
	}
	return int64(uint64(st.Bavail) * uint64(st.Bsize)), nil
}
