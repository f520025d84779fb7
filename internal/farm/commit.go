package farm

import "fmt"

// Commit runs the RDMA-optimized optimistic commit protocol (paper §2.1,
// FaRMv2 §5.2):
//
//  1. LOCK      — CAS the version word of every written object at its
//     primary; any interleaved change since the read aborts.
//  2. VALIDATE  — re-read the version word of every read-but-not-written
//     object; any change or held lock aborts.
//  3. TIMESTAMP — take a write timestamp from the global clock, strictly
//     above every issued read timestamp, and wait out the clock
//     uncertainty (strict serializability).
//  4. APPLY     — install new versions at primaries, pushing the prior
//     version onto the object's chain when a snapshot may still read
//     it and freeing what none can, and replicate the same mutations
//     to every backup with one-sided writes. Unlock is the
//     version-word store itself.
//
// Read-only transactions commit trivially: they validated nothing and hold
// no locks; a pinned one releases its snapshot pin.
func (tx *Tx) Commit() error {
	if err := tx.checkActive(); err != nil {
		return err
	}
	if tx.readOnly || len(tx.writes) == 0 {
		tx.status = txCommitted
		tx.release()
		for _, hook := range tx.doneHooks {
			hook()
		}
		return nil
	}
	f := tx.farm
	addrs := tx.sortedWriteAddrs()

	// Phase 1: lock existing objects at their primaries.
	var locked []Addr
	abort := func(reason error) error {
		tx.unlock(locked)
		tx.status = txAborted
		for _, a := range addrs {
			if w := tx.writes[a]; w.isNew {
				tx.releaseSlot(a)
			}
		}
		return reason
	}
	for _, a := range addrs {
		w := tx.writes[a]
		if w.isNew {
			continue
		}
		primary, err := f.cm.lookup(tx.c, a.Region())
		if err != nil {
			return abort(err)
		}
		if err := tx.c.CASRemote(primary); err != nil {
			f.cm.handleFailure(tx.c, primary)
			return abort(fmt.Errorf("%w: primary failed during lock", ErrConflict))
		}
		r, ok := f.regionAt(primary, a.Region())
		if !ok {
			return abort(fmt.Errorf("%w: region moved during lock", ErrConflict))
		}
		lockedWord := w.baseVer | lockBit
		if !r.casVersion(a.Offset(), w.baseVer, lockedWord) {
			return abort(fmt.Errorf("%w: lock lost on %v", ErrConflict, a))
		}
		locked = append(locked, a)
	}

	// Phase 2: validate the read set.
	for a, seen := range tx.reads {
		if _, written := tx.writes[a]; written {
			continue // covered by the CAS above
		}
		if err := tx.validateRead(a, seen); err != nil {
			return abort(err)
		}
	}

	// Phase 3: write timestamp. The modelled clock has no uncertainty to
	// wait out (clock.go).
	commitTs := f.clock.Next()
	for _, hook := range tx.tsHooks {
		hook(commitTs)
	}

	// Phase 4: group mutations by region, charge replication wire time up
	// front (locks stay held, so concurrent readers wait — exactly the
	// observable behaviour of in-flight FaRM commits), then install all
	// mutations.
	groups := make(map[RegionID][]*ObjBuf)
	var regionOrder []RegionID
	for _, a := range addrs {
		id := a.Region()
		if _, seen := groups[id]; !seen {
			regionOrder = append(regionOrder, id)
		}
		groups[id] = append(groups[id], tx.writes[a])
	}
	type pendingApply struct {
		id     RegionID
		region *Region
		bufs   []*ObjBuf
	}
	var pending []pendingApply
	for _, id := range regionOrder {
		replicas := f.cm.replicasOf(id)
		if len(replicas) == 0 {
			return abort(fmt.Errorf("%w: region %d has no replicas", ErrRegionLost, id))
		}
		primary := replicas[0]
		r, ok := f.regionAt(primary, id)
		if !ok {
			return abort(fmt.Errorf("%w: primary replica of region %d missing", ErrRegionLost, id))
		}
		bufs := groups[id]
		bytes := 0
		for _, w := range bufs {
			bytes += len(w.data) + 2*hdrBytes // new version + old-version record
		}
		if err := tx.c.WriteRemote(primary, bytes); err != nil {
			f.cm.handleFailure(tx.c, primary)
			return abort(fmt.Errorf("%w: primary failed during apply", ErrConflict))
		}
		for _, b := range replicas[1:] {
			if err := tx.c.WriteRemote(b, bytes); err != nil {
				// A backup dropped off mid-commit: continue with the
				// survivors and let the CM re-replicate in the background.
				f.cm.handleFailure(tx.c, b)
			}
		}
		pending = append(pending, pendingApply{id: id, region: r, bufs: bufs})
	}
	// Install mutations. No fabric waits happen below, so in Sim mode the
	// installation is atomic; in Direct mode each region's mutations are
	// atomic under its lock and cross-region partial visibility is bounded
	// by the lock words still being held. Mutations are mirrored to the
	// replica set as it exists now, so a backup that joined during the wire
	// waits above (CM re-replication) still receives this commit; the op
	// images are idempotent raw writes, making double-apply harmless.
	// Versions no snapshot at or above the watermark can read are freed
	// as they are superseded (paper §2.2: a version lives only as long as
	// a query may need it).
	watermark := f.watermark(false)
	for _, pa := range pending {
		ops := applyToPrimary(pa.region, pa.bufs, commitTs, watermark)
		for _, b := range f.cm.replicasOf(pa.id) {
			if br, ok := f.regionAt(b, pa.id); ok && br != pa.region {
				applyToBackup(br, ops)
			}
		}
	}
	tx.status = txCommitted
	for _, hook := range tx.doneHooks {
		hook()
	}
	return nil
}

// validateRead re-reads at its primary the version word of an object the
// transaction read at word seen. It fails, with ErrConflict when a retry
// may succeed, if the object has changed since or is gone.
func (tx *Tx) validateRead(a Addr, seen uint64) error {
	f := tx.farm
	primary, err := f.cm.lookup(tx.c, a.Region())
	if err != nil {
		return err
	}
	if err := tx.c.ReadRemote(primary, 8); err != nil {
		f.cm.handleFailure(tx.c, primary)
		return fmt.Errorf("%w: primary failed during validate", ErrConflict)
	}
	r, ok := f.regionAt(primary, a.Region())
	if !ok {
		return fmt.Errorf("%w: region moved during validate", ErrConflict)
	}
	if cur, err := r.readVersionWord(a.Offset()); err != nil || cur != seen {
		return fmt.Errorf("%w: read version changed on %v", ErrConflict, a)
	}
	return nil
}

// unlock restores the pre-lock version words after an abort.
func (tx *Tx) unlock(locked []Addr) {
	f := tx.farm
	for _, a := range locked {
		w := tx.writes[a]
		primary, err := f.cm.lookup(tx.c, a.Region())
		if err != nil {
			continue
		}
		if r, ok := f.regionAt(primary, a.Region()); ok {
			r.casVersion(a.Offset(), w.baseVer|lockBit, w.baseVer)
		}
	}
}

// regionOp is one replicated mutation: an optional slot reservation plus a
// raw byte image, or a slot free, mirroring the one-sided writes FaRM
// pushes to backups.
type regionOp struct {
	allocOff  uint32
	allocSize uint32 // total slot bytes (0 = no allocation)
	off       uint32
	bytes     []byte
	freeOff   uint32
	isFree    bool
}

// nilOlder is the header image of an empty older-version pointer.
var nilOlder = make([]byte, PtrBytes)

// applyToPrimary installs the write set into the primary region and returns
// the byte-level ops to mirror onto backups, in install order. It keeps one
// retention rule: a version lives only while a snapshot may read it. An
// overwritten object's prior version becomes a chain record under the new
// head when a snapshot below commitTs may still read it (watermark <
// commitTs), and every installed head's chain is then trimmed by the
// sweep's own trimChain, which frees what no snapshot at the watermark can
// reach. The one exception is an object unlinked (Unlink, Realloc) that no
// snapshot can read: nothing can reach its slot, so the slot and its chain
// are freed outright and need no tombstone.
func applyToPrimary(r *Region, bufs []*ObjBuf, commitTs, watermark uint64) []regionOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ops []regionOp
	for _, w := range bufs {
		off, n := w.addr.Offset(), uint32(len(w.data))
		if w.moved && watermark >= commitTs {
			ops = appendChainFrees(r, Ptr{Addr: w.addr}, ops)
			continue
		}
		older := NilPtr
		if w.isNew {
			r.ensure(off + hdrBytes + n)
		} else if older = r.older(off); watermark < commitTs {
			// Preserve the prior committed version for snapshot readers.
			// Without a record the old chain stays under the new head
			// until the trimChain below frees it.
			prevLen := r.payloadLen(off)
			if recOff, err := r.allocLocked(prevLen); err == nil {
				r.setVersionWord(recOff, r.versionWord(off)&^lockBit|recordBit)
				r.setOlder(recOff, older)
				r.setPayloadLen(recOff, prevLen)
				copy(r.data[recOff+hdrBytes:], r.data[off+hdrBytes:off+hdrBytes+prevLen])
				older = Ptr{Addr: MakeAddr(r.id, recOff), Size: prevLen}
				ops = append(ops, imageOp(r, recOff, prevLen, true))
			} else {
				// The region is full, so the chain is truncated: readers
				// below this version see ErrTooOld, which pinned snapshots
				// prevent. The records cut off stay allocated, and the
				// sweep skips them as it skips every version record.
				older = NilPtr
			}
		}
		r.setVersionWord(off, packVersion(commitTs, false, w.freed))
		r.setOlder(off, older)
		if w.freed {
			r.setPayloadLen(off, 0)
		} else {
			r.setPayloadLen(off, n)
			copy(r.data[off+hdrBytes:], w.data)
		}
		ops = append(ops, imageOp(r, off, n, w.isNew))
		ops = trimChain(r, off, watermark, ops)
	}
	return ops
}

// imageOp copies the header and first n payload bytes of the slot at off
// into a replication op; alloc marks a slot the backup must reserve first.
func imageOp(r *Region, off, n uint32, alloc bool) regionOp {
	op := regionOp{off: off, bytes: append([]byte(nil), r.data[off:off+hdrBytes+n]...)}
	if alloc {
		op.allocOff, op.allocSize = off, r.alloc.slotSize(off)
	}
	return op
}

// applyToBackup mirrors primary mutations onto a backup replica.
func applyToBackup(r *Region, ops []regionOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, op := range ops {
		if op.isFree {
			r.freeLocked(op.freeOff)
			continue
		}
		if op.allocSize > 0 {
			r.applyAllocLocked(op.allocOff, op.allocSize-hdrBytes)
		}
		r.ensure(op.off + uint32(len(op.bytes)))
		copy(r.data[op.off:], op.bytes)
	}
}
