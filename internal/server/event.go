// Package server implements the attack-as-a-service daemon behind
// cmd/attackd: an HTTP/JSON job API over the existing attack engine.
// Clients POST a locked circuit with an attack name and solver spec,
// get a job ID back, poll or stream the job's status, and fetch the
// result artifact.
//
// The subsystem deliberately reinvents nothing: the job store writes
// each job with atomicfile.WriteFile (jobs survive a daemon restart and
// unfinished ones resume), dispatch goes through attack.Registry,
// per-job solver configuration is the sat.ParseEngineSpec grammar
// built by attack.NewSolverSetup, and cancellation — DELETE
// /jobs/{id}, per-job timeouts, graceful SIGTERM drain — is the
// context-first plumbing every attack already honors. One daemon owns
// its store directory.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// EventType classifies a status event.
type EventType string

// EventJob reports a job state transition (Event.Job/State set).
const EventJob EventType = "job"

// Event is one status update of a job's event stream. Empty fields are
// omitted from the JSON encoding.
type Event struct {
	// Seq orders events within one stream, starting at 1.
	Seq int64 `json:"seq"`
	// Time is the wall-clock instant the event was emitted.
	Time time.Time `json:"time"`
	// Type classifies the event.
	Type EventType `json:"type"`
	// Job is the job ID (EventJob).
	Job string `json:"job,omitempty"`
	// State is the job state after the transition (EventJob).
	State string `json:"state,omitempty"`
	// Status is the attack status of a finished job.
	Status string `json:"status,omitempty"`
	// Detail is a human-readable annotation (e.g. a job error).
	Detail string `json:"detail,omitempty"`
}

// WriteNDJSON writes the event as one JSON line — the chunked
// newline-delimited-JSON stream encoding.
func WriteNDJSON(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteSSE writes the event as one Server-Sent-Events frame.
func WriteSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "data: %s\n\n", data)
	return err
}

// StreamWriter returns the event encoder matching the request's Accept
// header — SSE when the client asks for text/event-stream, NDJSON
// otherwise — along with the Content-Type it emits.
func StreamWriter(r *http.Request) (func(io.Writer, Event) error, string) {
	if accepts(r, "text/event-stream") {
		return WriteSSE, "text/event-stream"
	}
	return WriteNDJSON, "application/x-ndjson"
}

func accepts(r *http.Request, mime string) bool {
	for _, v := range r.Header.Values("Accept") {
		for _, part := range strings.Split(v, ",") {
			part, _, _ = strings.Cut(part, ";") // drop q=... parameters
			if strings.TrimSpace(part) == mime {
				return true
			}
		}
	}
	return false
}
