package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ice/internal/sched/cluster"
)

// assignments is a repeatable "name=value" flag (-peer facb=http://b:9700).
type assignments map[string]string

func (a assignments) String() string {
	var parts []string
	for k, v := range a {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (a assignments) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" || val == "" {
		return fmt.Errorf("want facility=value, got %q", s)
	}
	a[name] = val
	return nil
}

// clusterPeers assembles the peer table from the -peer / -peer-lab
// flags. A peer without a -peer-lab probe address never triggers a
// failover from this node (the fencing probe always fails): silence
// is then always treated as a partition, the safe default.
func clusterPeers(peers, labs assignments) ([]cluster.Peer, error) {
	var out []cluster.Peer
	for fac, url := range peers {
		out = append(out, cluster.Peer{Facility: fac, URL: url, LabAddr: labs[fac]})
	}
	for fac := range labs {
		if _, ok := peers[fac]; !ok {
			return nil, fmt.Errorf("-peer-lab %s without a matching -peer", fac)
		}
	}
	return out, nil
}

// serveCluster runs the federated gateway: the local scheduler wrapped
// in a cluster node that heartbeats its peers, replicates the WAL and
// checkpoint journals, and adopts a dead peer's jobs after fencing.
func serveCluster(listen string, node *cluster.Node) {
	// Caught before the "listening on" line, as in main.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := node.Start(); err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: node}
	go func() {
		if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}()
	st := node.Ready()
	log.Printf("icegated: facility %s (%s, term %d) listening on http://%s, %d peer(s)",
		node.Facility(), st.Role, st.Term, l.Addr(), len(st.Peers))

	<-ctx.Done()
	log.Print("icegated: shutting down (queued jobs stay PENDING in the replicated WAL)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	node.Stop()
}
