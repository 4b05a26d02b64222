//go:build !linux

package main

import "time"

// pacer falls back to the runtime timer off Linux; lateness is reported
// either way.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (*pacer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (*pacer) Close() error { return nil }
