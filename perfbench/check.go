package main

import (
	"encoding/json"
	"fmt"
)

// The answer checker. A request counts as failed when its status is not
// 2xx (429 and 503 included), when the transport fails, or when the
// answer is wrong; every failure counts in the run's failed total and
// makes the command exit non-zero.

type moveReply struct {
	Object    int64 `json:"object"`
	To        int64 `json:"to"`
	Coalesced bool  `json:"coalesced"`
}

type queryReply struct {
	Object   int64   `json:"object"`
	Location int64   `json:"location"`
	Cost     float64 `json:"cost"`
}

// checkStatus rejects every non-2xx reply.
func checkStatus(status int, body []byte) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("status %d: %s", status, trim(body))
	}
	return nil
}

// checkMove verifies a move's acknowledgement and reports whether the
// server coalesced it into a later queued move.
func checkMove(status int, body []byte, obj, to int) (coalesced bool, err error) {
	if err := checkStatus(status, body); err != nil {
		return false, err
	}
	var r moveReply
	if err := json.Unmarshal(body, &r); err != nil {
		return false, fmt.Errorf("decoding move reply: %w", err)
	}
	if r.Object != int64(obj) || r.To != int64(to) {
		return false, fmt.Errorf("move ack for object %d to %d, want object %d to %d", r.Object, r.To, obj, to)
	}
	return r.Coalesced, nil
}

// checkQuery verifies a query's answer against want, the issuing
// client's last acknowledged position of the object, and returns the
// reported cost.
func checkQuery(status int, body []byte, obj, want int) (float64, error) {
	if err := checkStatus(status, body); err != nil {
		return 0, err
	}
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decoding query reply: %w", err)
	}
	if r.Object != int64(obj) {
		return 0, fmt.Errorf("query answered object %d, want %d", r.Object, obj)
	}
	if r.Location != int64(want) {
		return 0, fmt.Errorf("object %d located at %d, last acknowledged position %d", obj, r.Location, want)
	}
	return r.Cost, nil
}

func trim(b []byte) string {
	if len(b) > 120 {
		b = b[:120]
	}
	return string(b)
}
