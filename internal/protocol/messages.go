package protocol

import (
	"fmt"

	"repro/internal/memory"
)

// msgKind enumerates the protocol message types.
type msgKind int

const (
	// Requests to the home processor.
	mReadReq msgKind = iota
	mReadExclReq
	mUpgradeReq

	// Forwards from the home to the owner.
	mReadFwd
	mReadExclFwd

	// Replies to the requester.
	mDataReply     // shared data
	mDataExclReply // exclusive data (+ number of invalidation acks to expect)
	mUpgradeAck    // upgrade granted (+ number of invalidation acks to expect)

	// Invalidations: home -> sharer, acknowledged to the requester.
	mInval
	mInvalAck

	// Owner -> home notification after an exclusive-to-shared downgrade,
	// so the home knows the block is no longer dirty remotely.
	mSharingUpdate

	// Intra-group downgrade messages (SMP-Shasta only).
	mDowngradeToShared
	mDowngradeToInvalid

	// Intra-group wakeup for processors stalled on a pending block.
	mWake

	// Synchronization traffic.
	mLockReq
	mLockGrant
	mLockRel
	mBarArrive
	mBarGo

	// Online home migration handshake: the deciding home hands the
	// directory entry to the new home (mMigrate) and queues requests until
	// the new home confirms installation (mMigrateAck).
	mMigrate
	mMigrateAck
)

var msgKindNames = map[msgKind]string{
	mReadReq: "ReadReq", mReadExclReq: "ReadExclReq", mUpgradeReq: "UpgradeReq",
	mReadFwd: "ReadFwd", mReadExclFwd: "ReadExclFwd",
	mDataReply: "DataReply", mDataExclReply: "DataExclReply", mUpgradeAck: "UpgradeAck",
	mInval: "Inval", mInvalAck: "InvalAck", mSharingUpdate: "SharingUpdate",
	mDowngradeToShared: "DowngradeToShared", mDowngradeToInvalid: "DowngradeToInvalid",
	mWake:    "Wake",
	mLockReq: "LockReq", mLockGrant: "LockGrant", mLockRel: "LockRel",
	mBarArrive: "BarArrive", mBarGo: "BarGo",
	mMigrate: "Migrate", mMigrateAck: "MigrateAck",
}

func (k msgKind) String() string {
	if s, ok := msgKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("msgKind(%d)", int(k))
}

// spanLeg reports whether the message kind is one leg of a miss-request
// lifecycle (request, forward or reply): the kinds whose sends carry an
// xmit trace event with the interconnect's timing decomposition, so the
// span layer can rebuild each request's stage waterfall.
func (k msgKind) spanLeg() bool {
	switch k {
	case mReadReq, mReadExclReq, mUpgradeReq, mReadFwd, mReadExclFwd,
		mDataReply, mDataExclReply, mUpgradeAck:
		return true
	}
	return false
}

// spanReply reports whether the kind is a reply leg, whose span requester
// is its destination (reply messages do not carry a requester field).
func (k msgKind) spanReply() bool {
	return k == mDataReply || k == mDataExclReply || k == mUpgradeAck
}

// syncMsg reports whether the kind is application synchronization traffic,
// whose send and handle trace events carry the primitive id.
func (k msgKind) syncMsg() bool {
	switch k {
	case mLockReq, mLockGrant, mLockRel, mBarArrive, mBarGo:
		return true
	}
	return false
}

// pmsg is the payload of every protocol message.
type pmsg struct {
	kind msgKind
	// baseLine identifies the block (its first line index).
	baseLine int
	// requester is the processor on whose behalf the message travels
	// (for forwards, invalidations and acks).
	requester int
	// data carries block contents for data replies.
	data []byte
	// acks is the number of invalidation acknowledgements the requester
	// should expect (data/upgrade replies).
	acks int
	// hops is 2 when the reply comes from the home, 3 when it comes from
	// a third processor, for the Figure 6 classification.
	hops int
	// id is a lock or barrier identifier for synchronization messages:
	// the lock id for lock traffic, the barrier generation for arrivals
	// and releases.
	id int
	// prev, on lock grants, names the lock's previous holder (-1 for the
	// first-ever grant); with hops (2 = granted immediately by the
	// manager, 3 = handed off from a release) it lets the requester
	// classify the hand-off for the per-primitive sync statistics.
	prev int
	// issueTime is copied from the original request so latency can be
	// measured at reply processing.
	issueTime int64
	// seq is the block's directory sequence number: the home increments
	// it for every exclusivity grant, tags invalidations and replies
	// with it, and groups tag their copies with the sequence that
	// produced them. An invalidation whose sequence does not exceed the
	// copy's is stale — it belongs to a write transaction serialized
	// before the copy was granted — and is acknowledged without effect.
	// (Replies and invalidations travel on independent channels, so a
	// stale invalidation can physically arrive after a newer copy.)
	seq int64
	// homeHint, on replies and invalidations under online migration,
	// names the block's live home plus one (0 means no hint); requesters
	// update their group's home view from it so later misses skip the
	// tombstone forward.
	homeHint int
	// mig carries the directory transfer of a migration handshake.
	mig *migPayload
	// counted marks a request already fed into the home's migration miss
	// model, so queue-and-replay paths do not count it twice.
	counted bool
}

// migPayload is the directory state an mMigrate message hands to the new
// home: the entry itself plus the block's migration count (hysteresis).
type migPayload struct {
	owner   int
	sharers procSet
	seq     int64
	dirty   bool
	moved   int
}

// sizeBytes returns the payload size used for transfer-time modelling:
// control messages are small; data messages carry the block.
func (m *pmsg) sizeBytes() int { return len(m.data) }

// storeRec is one pending store recorded in a miss entry, replayed over the
// reply data when it arrives (the protocol's non-blocking store merge).
type storeRec struct {
	addr memory.Addr
	size int // 4 or 8 bytes
	val  uint64
	proc int // issuing processor (for release tracking)
}
