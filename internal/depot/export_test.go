package depot

import (
	"os"
	"time"
)

// backdate ages an artifact for tests: on disk it moves the file
// mtime to at; in memory it rewrites the entry's access time and
// sequence so the entry sorts least-recently-used.
func (d *Depot) backdate(key Key, at time.Time) error {
	id := key.ID()
	if d.mem != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		if e, ok := d.mem[id]; ok {
			e.atime = at
			e.seq = 0
		}
		return nil
	}
	return os.Chtimes(d.path(id), at, at)
}

// TempGrace exposes the orphaned-temp-file grace period to tests.
const TempGrace = tempGrace
