package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ice/internal/jsonl"
	"ice/internal/sched"
)

// replicaStreamFile is the per-origin replicated stream inside the
// replica directory ("replica/<facility>/stream.jsonl").
const replicaStreamFile = "stream.jsonl"

// origin is one peer facility's replicated stream.
type origin struct {
	file *jsonl.Log
	last uint64
}

// replicaStore persists the replication streams this node receives
// from its peers — each item fsynced before it is acknowledged, so
// an acknowledged admission or checkpoint survives this node's own
// crash too. On failover the stream is folded back into jobs and
// journals; items are idempotent by replication sequence, so a
// retransmitted batch after a partition heals is deduplicated here.
type replicaStore struct {
	dir string

	mu      sync.Mutex
	origins map[string]*origin
	closed  bool
}

func openReplicaStore(dir string) (*replicaStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: replica dir: %w", err)
	}
	s := &replicaStore{dir: dir, origins: make(map[string]*origin)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: scan replica dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := s.open(e.Name()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// open loads (creating if needed) one origin's stream and recovers
// its high-water replication sequence.
func (s *replicaStore) open(facility string) (*origin, error) {
	if o, ok := s.origins[facility]; ok {
		return o, nil
	}
	facDir := filepath.Join(s.dir, facility)
	if err := os.MkdirAll(facDir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: replica dir %s: %w", facility, err)
	}
	var items []repItem
	file, err := jsonl.Open(filepath.Join(facDir, replicaStreamFile), jsonl.Collect(&items))
	if err != nil {
		return nil, fmt.Errorf("cluster: replica stream %s: %w", facility, err)
	}
	o := &origin{file: file}
	for _, it := range items {
		o.last = max(o.last, it.RepSeq)
	}
	s.origins[facility] = o
	return o, nil
}

// Apply persists a batch from one origin, skipping already-seen
// replication sequences, and returns the origin's high-water mark as
// the acknowledgement.
func (s *replicaStore) Apply(from string, items []repItem) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("cluster: replica store closed")
	}
	o, err := s.open(from)
	if err != nil {
		return 0, err
	}
	for _, it := range items {
		if it.RepSeq <= o.last {
			continue
		}
		line, err := json.Marshal(it)
		if err != nil {
			return o.last, fmt.Errorf("cluster: encode replica item: %w", err)
		}
		line = append(line, '\n')
		if _, err := o.file.Write(line); err != nil {
			return o.last, fmt.Errorf("cluster: persist replica item: %w", err)
		}
		o.last = it.RepSeq
	}
	return o.last, nil
}

// LastSeq returns the origin's high-water replication sequence.
func (s *replicaStore) LastSeq(facility string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.origins[facility]; ok {
		return o.last
	}
	return 0
}

// Read returns one origin's full replicated stream.
func (s *replicaStore) Read(facility string) ([]repItem, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return readStream(filepath.Join(s.dir, facility, replicaStreamFile))
}

// Close releases the stream files.
func (s *replicaStore) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, o := range s.origins {
		o.file.Close()
	}
}

// readStream parses one stream file (missing file = empty stream)
// under the jsonl torn-tail rule.
func readStream(path string) ([]repItem, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("cluster: open replica stream: %w", err)
	}
	defer f.Close()
	var items []repItem
	if _, err := jsonl.Read(f, jsonl.Collect(&items)); err != nil {
		return nil, fmt.Errorf("cluster: replica stream: %w", err)
	}
	return items, nil
}

// foldStream splits a replicated stream into its WAL records and
// per-job journal lines — the inputs of a failover adoption.
func foldStream(items []repItem) ([]sched.WALRecord, map[string][]json.RawMessage) {
	var recs []sched.WALRecord
	journals := make(map[string][]json.RawMessage)
	for _, it := range items {
		switch it.Kind {
		case kindWAL:
			if it.WAL != nil {
				recs = append(recs, *it.WAL)
			}
		case kindJournal:
			if it.Job != "" {
				journals[it.Job] = append(journals[it.Job], it.Line)
			}
		}
	}
	return recs, journals
}
