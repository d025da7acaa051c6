package server

import (
	"context"
	"fmt"
)

// Backup streams a snapshot-consistent image of the whole keyspace from
// the server at addr, calling fn for every pair in ascending key order;
// fn returning false stops the stream early. The first page pins one
// generation per shard, so the image is exactly the set's committed
// state at that moment — a backup taken under sustained writes restores
// to one consistent state, not a smear of mid-backup commits.
//
// Backup is a SNAPSCAN loop over full pages on a Client it dials and
// closes itself; closing the connection (on completion, early stop, or
// failure) releases any pins the server still holds for it.
// Server-side failures arrive as typed errors (ErrSnapshotUnsupported
// when a shard backend cannot snapshot, ErrSnapshotTooOld when the pins
// were evicted mid-stream); either way the stream ends with the error,
// never with a silently truncated image. ctx bounds the whole stream:
// cancelling it closes the connection, and the error wraps ctx.Err().
func Backup(ctx context.Context, addr string, fn func(k, v uint64) bool) error {
	c, err := Dial(ctx, addr)
	if err != nil {
		return err
	}
	defer c.Close()
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()
	sc := c.SnapScan(0, ^uint64(0))
	for !sc.Done() {
		pairs, err := sc.Next(0)
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("server: backup stream: %w", cerr)
		}
		if err != nil {
			return fmt.Errorf("server: backup stream: %w", err)
		}
		for _, p := range pairs {
			if !fn(p.K, p.V) {
				return nil
			}
		}
	}
	return nil
}
