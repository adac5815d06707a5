//go:build !unix

package segstore

import "os"

// lockDir is a no-op on platforms without flock: nothing stops a second
// opener there.
func lockDir(dir string) (*os.File, error) { return nil, nil }

func unlockDir(f *os.File) error { return nil }
