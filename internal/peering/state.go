package peering

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/crp"
	"repro/internal/binwire"
)

const stateFrom = "state" // the From of every state-file message

// WriteState writes every record svc holds to w as uvarint-length-prefixed
// delta messages exactly as the link carries them. A record no delta can
// carry is left out, as the link leaves it unsent, and named in skipped;
// every other record is written. err is w's error.
func WriteState(w io.Writer, svc *crp.Service) (skipped, err error) {
	var nodes []crp.NodeID
	for i := 0; i < svc.ShardCount(); i++ {
		metas, _ := svc.ShardMetas(i) // i is in range
		for _, m := range metas {
			nodes = append(nodes, m.Node)
		}
	}
	chunks, left := packDeltas(svc, nodes)
	for _, chunk := range chunks {
		raw, err := encodePeerMsg(&Msg{Type: MsgDelta, From: stateFrom, Deltas: chunk})
		if err == nil {
			var e binwire.Enc
			e.Blob(raw)
			_, err = w.Write(e.Bytes())
		}
		if err != nil {
			return errors.Join(left...), err
		}
	}
	return errors.Join(left...), nil
}

// ReadState restores state-file data into svc through decodePeerMsg and
// ApplyDelta: origins and versions come back, no rumor is queued. Anything
// else — a bad frame, a non-delta message, a refused record (a deletion bit
// among them), the older JSON snapshot format — fails it; frames before it
// stay applied.
func ReadState(data []byte, svc *crp.Service) error {
	if bytes.HasPrefix(data, []byte(`{"`)) {
		return errors.New("peering: state file is a JSON snapshot, a format this version does not read")
	}
	d := binwire.NewDec(data)
	for frame := 0; d.Remaining() > 0; frame++ {
		raw, err := d.Blob(MaxMsgSize)
		var msg Msg
		if err == nil {
			msg, err = decodePeerMsg(raw)
		}
		if err == nil && msg.Type != MsgDelta {
			err = fmt.Errorf("a %q message, want %q", msg.Type, MsgDelta)
		}
		for i := 0; err == nil && i < len(msg.Deltas); i++ {
			_, err = svc.ApplyDelta(msg.Deltas[i])
		}
		if err != nil {
			return fmt.Errorf("peering: state frame %d: %w", frame, err)
		}
	}
	return nil
}
