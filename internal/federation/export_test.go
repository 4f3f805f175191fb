package federation

import "log"

// AddWorker registers one worker URL (idempotent; an invalid URL is logged
// and ignored). The next heartbeat round-trip makes it live and
// dispatchable.
func (co *Coordinator) AddWorker(raw string) {
	if err := co.fleet.addWorker(raw); err != nil {
		log.Printf("federation: %v", err)
	}
}

// Workers snapshots the registry, sorted by URL.
func (co *Coordinator) Workers() []WorkerStatus { return co.fleet.snapshot() }
