package wire

import (
	"fmt"

	"repro/internal/engine"
)

// AppendVehicle encodes one vehicle report payload (no frame, no CRC) into
// b — the fuzz and codec tests' view of the raw encoding. It is a run of
// one, and its matrix is always inline: a lone payload has no stream to
// refer back to.
func AppendVehicle(b []byte, v *engine.VehicleReport) []byte {
	return appendVehicle(b, v, 1, appendMatrix([]byte{matrixInline}, v))
}

// DecodeVehiclePayload decodes one raw vehicle payload produced by
// AppendVehicle, rejecting trailing bytes, matrix back-references and
// runs of more than one vehicle.
func DecodeVehiclePayload(b []byte) (*engine.VehicleReport, error) {
	d := dec{b: b}
	var v engine.VehicleReport
	n := decodeVehicle(&d, &v, nil)
	if d.err != nil {
		return nil, d.err
	}
	if n != 1 {
		return nil, fmt.Errorf("wire: a lone vehicle payload is a run of %d vehicles, want 1", n)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after vehicle payload", len(d.b))
	}
	return &v, nil
}
