// Package avdb is an audio/video database system: a Go implementation of
// Gibbs, Breiteneder and Tsichritzis, "Audio/Video Databases: An
// Object-Oriented Approach" (ICDE 1993).
//
// An AV database is "a locus of AV activities": it stores temporally
// composed audio/video values, answers queries with references, and lets
// applications build graphs of interconnected producer/consumer/
// transformer activities — under admission control, with client-visible
// data placement, quality-factor-driven representation selection, and an
// asynchronous stream-based client interface.
//
// This package is the façade over the implementation packages:
//
//	internal/core       the database system (catalog, sessions, recovery)
//	internal/activity   the MediaActivity framework and flow composition
//	internal/activities the concrete activity classes of the paper's Table 1
//	internal/temporal   temporal composition (tcomp, timelines)
//	internal/media      media values, types and quality factors
//	internal/codec      intra/inter/scalable video codecs (audio stays PCM)
//	internal/query      the query language and indexes
//	internal/txn        the catalog's redo log and media versioning
//	internal/storage    device-placed media segments
//	internal/device     the simulated hardware platform
//	internal/netsim     the simulated client network
//	internal/sched      clocks, admission control, resynchronization
//	internal/synth      synthetic capture (test patterns, speech, subtitles)
//	internal/render     the virtual-world renderer
//	internal/experiment the paper's figures, table and design-claim benches
//
// See examples/quickstart for the paper's §4.3 program end to end, and
// cmd/avbench for the full experiment suite.
package avdb

import (
	"avdb/internal/core"
	"avdb/internal/media"
	"avdb/internal/schema"
)

// Database is an AV database instance.
type Database = core.Database

// Session is one client's connection to a database.
type Session = core.Session

// Playback is the asynchronous handle of a started stream.
type Playback = core.Playback

// Config parameterizes a database.
type Config = core.Config

// PlatformConfig sizes the default simulated platform.
type PlatformConfig = core.PlatformConfig

// RepresentationHints guide the database's encoding choice for stored
// video.
type RepresentationHints = core.RepresentationHints

// RetrievalInfo describes how a quality-factor retrieval was served.
type RetrievalInfo = core.RetrievalInfo

// VideoQuality is the paper's "w x h x d @ r" quality factor.
type VideoQuality = media.VideoQuality

// AudioQuality is the paper's voice/FM/CD audio quality factor.
type AudioQuality = media.AudioQuality

// OID is an object reference, the result currency of queries.
type OID = schema.OID

// Open creates a database; register devices and links afterwards.  It
// fails on an invalid configuration (e.g. a negative resource budget).
func Open(cfg Config) (*Database, error) { return core.Open(cfg) }

// OpenDefault creates a database on a conventional simulated platform.
func OpenDefault(name string, pc PlatformConfig) (*Database, error) {
	return core.OpenDefault(name, pc)
}

// ParseVideoQuality parses "640x480x8@30".
func ParseVideoQuality(s string) (VideoQuality, error) { return media.ParseVideoQuality(s) }

// RetrieveAtQuality serves a stored video value at a requested quality.
func RetrieveAtQuality(v media.Value, q VideoQuality) (media.Value, RetrievalInfo, error) {
	return core.RetrieveAtQuality(v, q)
}
