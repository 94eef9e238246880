package server_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/server"
)

// decodeJobSpec decodes a POST /jobs body as the daemon's submit handler
// does: one JSON value, unknown fields rejected.
func decodeJobSpec(body []byte) (server.JobSpec, error) {
	var spec server.JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzJobSpec: no POST /jobs body makes decoding or Resolve panic, and a
// spec the daemon would accept re-marshals to a body that decodes to an
// equal spec, which resolves again — the job the daemon persists and
// reloads is the job it accepted. Plain go test replays the corpus under
// testdata/fuzz, whose bodies with the retired portfolio field exercise
// the rejection of an unknown field.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(body)
		if err != nil {
			return
		}
		if _, err := spec.Resolve(); err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %q does not marshal: %v", body, err)
		}
		back, err := decodeJobSpec(out)
		if err != nil {
			t.Fatalf("accepted spec %q marshals to %q, which does not decode: %v", body, out, err)
		}
		// An empty candidate list is omitted on the wire; absent and empty
		// both mean φ = true.
		if len(spec.Candidates) == 0 {
			spec.Candidates = nil
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("accepted spec %q marshals to %q, which decodes to %+v, not %+v", body, out, back, spec)
		}
		if _, err := back.Resolve(); err != nil {
			t.Fatalf("accepted spec %q marshals to %q, which does not resolve: %v", body, out, err)
		}
	})
}
