package scenario

// This file loads scenarios from JSON manifests — the batch front-end
// the ROADMAP asks for: a new scenario matrix runs from a file with
// zero new Go. See README.md ("Manifest-driven sweeps") for the
// schema and a worked example.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Parse decodes and validates one manifest. Unknown fields are
// rejected so typos fail loudly instead of silently shrinking the
// matrix. The scenario is read-only: the decode Parse validates with is
// the one every later call on it reuses (Clone it to change it).
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := new(Scenario)
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("scenario: manifest: %v", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("scenario: manifest: trailing data after the scenario object")
	}
	if err := s.freeze().Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Marshal encodes a scenario as manifest JSON — the inverse of Parse,
// so tooling can generate manifests from Go values.
func Marshal(s *Scenario) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(s, "", "  ")
}

// Load reads and validates the manifest at path; like Parse's, the
// scenario is read-only.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%v (manifest %s)", err, path)
	}
	return s, nil
}
