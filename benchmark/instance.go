package main

import (
	"fmt"
	"os"
	"path/filepath"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/server"
	"onlinetuner/internal/tpch"
	"onlinetuner/internal/wal"
)

// instance is one served database: the engine, the tuner if the
// workload attaches one, and the daemon on a loopback port.
type instance struct {
	sp    *spec
	db    *engine.DB
	tuner *core.Tuner
	srv   *server.Server
	addr  string
	errc  <-chan error
	dir   string // durable directory, "" in memory
}

// openDB loads TPC-H from the seed into an engine configured exactly as
// `onlinetuner serve` defaults (engine auto, rules all, plan cache
// exact, WAL SyncGroup, async tuner with throttle 1). The two stated
// deviations: scan_olap serves with -notuner, and the durable load runs
// under SyncNone before a checkpoint makes it the recovery baseline.
func openDB(sp *spec, seed int64, dir string) (*engine.DB, *core.Tuner, error) {
	var db *engine.DB
	if sp.durable {
		var err error
		if db, err = engine.OpenDurable(engine.Config{Dir: dir, Sync: wal.SyncNone}); err != nil {
			return nil, nil, err
		}
	} else {
		db = engine.OpenConfig(engine.Config{})
	}
	if err := tpch.NewGenerator(tpch.Scale(sp.scale), seed).Load(db); err != nil {
		return nil, nil, fmt.Errorf("tpch load: %w", err)
	}
	if sp.durable {
		if err := db.Checkpoint(); err != nil {
			return nil, nil, err
		}
		db.WAL().SetPolicy(wal.SyncGroup)
	}
	var tuner *core.Tuner
	if sp.tuner {
		opts := core.DefaultOptions()
		opts.Async = true
		tuner = core.Attach(db, opts)
	}
	return db, tuner, nil
}

// start opens the database and puts the real daemon in front of it.
func start(sp *spec, seed int64, workDir string) (*instance, error) {
	in := &instance{sp: sp}
	if sp.durable {
		dir, err := os.MkdirTemp(workDir, sp.name+"-")
		if err != nil {
			return nil, err
		}
		in.dir = dir
	}
	var err error
	if in.db, in.tuner, err = openDB(sp, seed, in.dir); err != nil {
		in.stop()
		return nil, err
	}
	in.srv = server.New(in.db, server.Config{})
	addr, errc, err := in.srv.Listen("127.0.0.1:0")
	if err != nil {
		in.stop()
		return nil, err
	}
	in.addr, in.errc = addr.String(), errc
	return in, nil
}

// stop aborts the daemon, waits for its goroutines, closes the tuner
// (which waits out a background build) and removes the durable
// directory. Safe on a partly started instance.
func (in *instance) stop() {
	if in.errc != nil {
		in.srv.Abort()
		<-in.errc
		in.errc = nil
	}
	if in.tuner != nil {
		in.tuner.Close()
		in.tuner = nil
	}
	if in.db != nil {
		in.db.Crash() // no flush: nothing here is meant to outlive the run
		in.db = nil
	}
	if in.dir != "" {
		_ = os.RemoveAll(in.dir)
		in.dir = ""
	}
}

// walBytes sums the sizes of the WAL segments in dir.
func walBytes(dir string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	var n int64
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			n += fi.Size()
		}
	}
	return n
}
