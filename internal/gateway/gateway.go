// Package gateway implements the worst-case queuing delay and buffer-size
// analysis of the gateway output queues (§4.1.1 and §4.1.2 of the paper).
//
// Three queues exist:
//
//   - OutN_i: the priority-ordered output queue of each ET node. The
//     queuing delay of a message is its CAN arbitration delay w_m
//     (computed by package rta); this package bounds the queue size.
//   - OutCAN: the priority-ordered TTP-to-CAN queue of the gateway. Same
//     treatment as OutN_i.
//   - OutTTP: the FIFO CAN-to-TTP queue of the gateway, drained by at
//     most size_SG bytes in every occurrence of the gateway slot S_G.
//     This package computes both the worst-case queuing delay w_m^TTP and
//     the buffer bound s^TTP = max(S_m + I_m).
package gateway

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/rta"
	"repro/internal/ttp"
)

// QueueMsg describes one message passing through a gateway-side queue.
type QueueMsg struct {
	// Name is used in diagnostics only.
	Name string
	// Size is the payload in bytes (S_m / s_m in the paper).
	Size int
	// T is the period of the message (its graph's period).
	T model.Time
	// O is the offset at which the message enters the queue, relative to
	// its transaction release.
	O model.Time
	// J is the jitter of the queue entry time: the message arrives in
	// [O, O+J].
	J model.Time
	// Priority orders the messages (smaller = higher priority, CAN
	// convention). In the FIFO OutTTP queue the paper approximates
	// "queued ahead of m" by "higher priority than m".
	Priority int
	// Trans identifies the transaction (process graph) for relative
	// offsets; -1 for unrelated.
	Trans int
}

// TTPResult is the OutTTP analysis outcome for one message.
type TTPResult struct {
	// W is the worst-case queuing delay w_m^TTP, measured from the
	// latest possible queue entry O+J until the start of the S_G slot
	// occurrence that carries the last byte of m.
	W model.Time
	// I is I_m: the worst-case number of bytes queued ahead of m.
	I int
	// R is the delivery response J + W + C_SG, measured from O: the
	// message is in the destination node's buffers no later than
	// transaction release + O + R.
	R model.Time
	// Converged is false when the fixed point hit the horizon.
	Converged bool
}

// TTPQueueParams configures the OutTTP analysis.
type TTPQueueParams struct {
	// Round is the (padded) TDMA round in effect.
	Round ttp.Round
	// GatewaySlot is the index of S_G inside the round.
	GatewaySlot int
	// TickPerByte converts slot time to byte capacity.
	TickPerByte model.Time
	// Horizon caps the fixed points.
	Horizon model.Time
}

// AnalyzeOutTTP bounds the queuing delay of every message in the OutTTP
// FIFO queue, following §4.1.2:
//
//	w_m = B_m + (ceil((S_m + I_m)/size_SG) - 1) * T_TDMA
//	I_m = sum over j in hp(m) of queued((w_m + J_m) + J_j - O_mj, T_j) * s_j
//
// with these refinements over the paper's formulas (documented in
// DESIGN.md):
//
//   - B_m anchors at the latest possible queue entry O_m + J_m: the wait
//     until the next S_G start from there. Because the drain instants are
//     fixed TDMA slots, the delivery time is monotone in the entry time,
//     so the latest entry dominates every earlier one. This replaces the
//     paper's "T_TDMA - O_m mod T_TDMA + O_SG", which can exceed a round.
//   - The interference window for bytes queued ahead of m spans m's whole
//     possible residence [O_m, O_m+J_m+w_m], hence the J_m term, and the
//     arrival count is inclusive (rta.CountArrivals with inclusive set)
//     so that simultaneous higher-priority entries are not missed.
//
// The "-1" accounts for the drain of the S_G occurrence reached after
// B_m: if everything fits there, no additional full rounds are needed.
// The returned W is measured from the latest entry O_m + J_m.
func AnalyzeOutTTP(msgs []QueueMsg, p TTPQueueParams) ([]TTPResult, error) {
	if p.Horizon <= 0 {
		return nil, fmt.Errorf("gateway: positive horizon required")
	}
	if p.GatewaySlot < 0 || p.GatewaySlot >= len(p.Round.Slots) {
		return nil, fmt.Errorf("gateway: gateway slot %d out of range", p.GatewaySlot)
	}
	capSG := p.Round.Capacity(p.GatewaySlot, p.TickPerByte)
	if capSG <= 0 {
		return nil, fmt.Errorf("gateway: gateway slot has zero byte capacity")
	}
	for _, m := range msgs {
		if m.Size <= 0 {
			return nil, fmt.Errorf("gateway: message %q has size %d", m.Name, m.Size)
		}
		if m.T <= 0 {
			return nil, fmt.Errorf("gateway: message %q has period %d", m.Name, m.T)
		}
		if m.Size > capSG {
			return nil, fmt.Errorf("gateway: message %q (%d bytes) exceeds the S_G capacity of %d bytes", m.Name, m.Size, capSG)
		}
	}
	tdma := p.Round.Period()
	cSG := p.Round.Slots[p.GatewaySlot].Length
	res := make([]TTPResult, len(msgs))
	// Outer fixed point: each message's residence (J + W) extends the
	// lingering windows of the others (see rta.CountArrivals); the
	// delays grow monotonically across passes until stable.
	resid := make([]model.Time, len(msgs))
	for pass := 0; pass < 64; pass++ {
		for i := range msgs {
			me := msgs[i]
			anchor := me.O + me.J
			b := p.Round.NextSlotStart(p.GatewaySlot, anchor) - anchor
			w := b
			for iter := 0; ; iter++ {
				im := interferenceBytes(msgs, i, w, resid)
				rounds := model.Time((me.Size+im+capSG-1)/capSG) - 1
				next := b + rounds*tdma
				if next == w {
					res[i] = TTPResult{W: w, I: im, R: me.J + w + cSG, Converged: true}
					break
				}
				if next > p.Horizon || iter > 1<<20 {
					res[i] = TTPResult{W: p.Horizon, I: im, R: me.J + p.Horizon + cSG, Converged: false}
					break
				}
				w = next
			}
		}
		changed := false
		for i := range msgs {
			if r := msgs[i].J + res[i].W; r != resid[i] {
				resid[i] = r
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return res, nil
}

// interferenceBytes returns I_m for a queuing delay w: the bytes of
// higher-priority messages that can share the queue with m at any point
// of m's residence window [O_m, O_m + J_m + w], including instances
// released earlier that still linger in the FIFO (resid holds each
// message's J + W from the previous pass).
func interferenceBytes(msgs []QueueMsg, i int, w model.Time, resid []model.Time) int {
	me := msgs[i]
	bytes := 0
	for j := range msgs {
		o := msgs[j]
		if j == i || o.Priority >= me.Priority {
			continue
		}
		same := o.Trans == me.Trans && o.Trans >= 0
		omj := rta.RelOffset(me.O, o.O, o.T, same)
		bytes += int(rta.CountArrivals(w+me.J, o.J, omj, o.T, resid[j], true, same)) * o.Size
	}
	return bytes
}

// OutTTPBufferBound returns s^TTP_out = max over m of (S_m + I_m), the
// worst-case number of bytes simultaneously waiting in the OutTTP queue,
// together with the index of the message attaining the bound (-1 when
// the queue is empty). The critical message is where the
// OptimizeResources moves have the highest potential (§5.1).
func OutTTPBufferBound(msgs []QueueMsg, res []TTPResult) (bound, critical int) {
	critical = -1
	for i := range msgs {
		if s := msgs[i].Size + res[i].I; s > bound {
			bound, critical = s, i
		}
	}
	return bound, critical
}

// CANQueueMsg couples a queue message with its CAN queuing delay w_m
// (produced by the rta package for the bus resource).
type CANQueueMsg struct {
	QueueMsg
	// W is the worst-case CAN arbitration delay w_m of the message.
	W model.Time
}

// CANQueueBufferBound returns the worst-case byte occupancy of one
// priority-ordered CAN output queue (OutN_i or OutCAN), §4.1.1:
//
//	s_out = max over m of ( s_m + sum over j in hp(m) of
//	         queued((w_m + J_m) + J_j - O_mj, T_j) * s_j )
//
// As in AnalyzeOutTTP, the coexistence window spans m's whole residence
// [O_m, O_m + J_m + w_m] and the arrival count is inclusive. Only the
// messages passing through the same queue must be given. The second
// result is the index of the message attaining the bound (-1 for an
// empty queue).
func CANQueueBufferBound(msgs []CANQueueMsg) (bound, critical int) {
	critical = -1
	for i := range msgs {
		me := msgs[i]
		s := me.Size
		for j := range msgs {
			o := msgs[j]
			if j == i || o.Priority >= me.Priority {
				continue
			}
			same := o.Trans == me.Trans && o.Trans >= 0
			omj := rta.RelOffset(me.O, o.O, o.T, same)
			s += int(rta.CountArrivals(me.W+me.J, o.J, omj, o.T, o.J+o.W, true, same)) * o.Size
		}
		if s > bound {
			bound, critical = s, i
		}
	}
	return bound, critical
}
