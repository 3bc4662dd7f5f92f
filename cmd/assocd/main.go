// Command assocd is the long-lived association daemon: an HTTP JSON
// API (see serve.go) over the online incremental engine in
// internal/engine, with an optional write-ahead journal (durable.go).
// -serve is accepted and changes nothing: the command always serves.
// -shards is accepted and ignored: the engine applies every batch
// serially. Ctrl-C / SIGTERM shuts it down gracefully.
//
// Usage:
//
//	assocd [-addr 127.0.0.1:8700] [-data-dir DIR] [-fsync always|interval|off] [-multihome K]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr))
}

func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("assocd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Bool("serve", false, "accepted for compatibility: assocd always serves")
	addr := fs.String("addr", "127.0.0.1:8700", "listen address")
	shards := fs.Int("shards", 1, "accepted for compatibility and ignored: the engine is serial (>= 1)")
	dataDir := fs.String("data-dir", "", "directory for the write-ahead journal and snapshots (empty = no durability)")
	fsyncPolicy := fs.String("fsync", "interval", "with -data-dir, journal fsync policy: always, interval, off")
	fsyncInterval := fs.Duration("fsync-interval", 100*time.Millisecond, "with -fsync interval, least time between fsyncs: an append syncs once this has passed since the last sync (no background flusher; a snapshot or shutdown also syncs)")
	snapEvents := fs.Int("snapshot-events", 4096, "with -data-dir, checkpoint after this many journaled events")
	snapInterval := fs.Duration("snapshot-interval", time.Minute, "with -data-dir, checkpoint at least this often (checked on journal writes)")
	multihome := fs.Int("multihome", 0, "default per-user AP-set cap for scenarios that do not ask for one (<= 1 keeps single-AP association)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Flag parsing stops at the first positional argument, so every
	// flag after it would be dropped silently.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "assocd: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *shards < 1 {
		fmt.Fprintf(stderr, "assocd: -shards must be >= 1\n")
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "assocd: %v\n", err)
		return 1
	}
	if err := serveOn(ctx, ln, stderr, serveOptions{
		dataDir:       *dataDir,
		fsync:         *fsyncPolicy,
		fsyncInterval: *fsyncInterval,
		snapEvents:    *snapEvents,
		snapInterval:  *snapInterval,
		multihome:     *multihome,
	}); err != nil {
		fmt.Fprintf(stderr, "assocd: %v\n", err)
		return 1
	}
	return 0
}
