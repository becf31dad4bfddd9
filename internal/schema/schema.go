// Package schema implements the object-oriented data model of the AV
// database: class definitions with single inheritance, typed attributes
// including media-valued attributes with quality factors and tcomp
// (temporal composite) attributes, and an object store of class
// instances.
//
// It is the machinery behind the paper's class examples:
//
//	class SimpleNewscast {
//	    String     title
//	    String     broadcastSource
//	    String     keywords
//	    Date       whenBroadcast
//	    VideoValue videoTrack  quality 640x480x8@30
//	}
//
//	class Newscast {
//	    ...
//	    tcomp clip {
//	        VideoValue      videoTrack
//	        AudioValue      englishTrack
//	        AudioValue      frenchTrack
//	        TextStreamValue subtitleTrack
//	    }
//	}
package schema

import (
	"fmt"
	"sort"
	"sync"

	"avdb/internal/media"
)

// AttrKind is the kind of an attribute.
type AttrKind int

// The attribute kinds of the data model.
const (
	KindString AttrKind = iota
	KindInt
	KindFloat
	KindBool
	KindDate
	KindMedia // a media value of a declared media kind
	KindTComp // a temporal composite with declared tracks
)

var attrKindNames = [...]string{
	KindString: "String",
	KindInt:    "Int",
	KindFloat:  "Float",
	KindBool:   "Bool",
	KindDate:   "Date",
	KindMedia:  "Media",
	KindTComp:  "TComp",
}

// String returns the kind's name.
func (k AttrKind) String() string {
	if k < 0 || int(k) >= len(attrKindNames) {
		return fmt.Sprintf("AttrKind(%d)", int(k))
	}
	return attrKindNames[k]
}

// TrackDef declares one track of a tcomp attribute.
type TrackDef struct {
	Name      string
	MediaKind media.Kind
}

// AttrDef declares one attribute of a class.
type AttrDef struct {
	Name string
	Kind AttrKind

	// MediaKind constrains media attributes to video, audio, text or
	// image values.
	MediaKind media.Kind
	// VideoQuality is the optional quality factor of a video attribute,
	// the paper's "quality 640 x 480 x 8 @ 30".  Zero means unspecified:
	// "if absent, stored values can be of varying quality."
	VideoQuality media.VideoQuality
	// AudioQuality is the optional quality factor of an audio attribute.
	AudioQuality media.AudioQuality
	// Tracks declares the component tracks of a tcomp attribute.
	Tracks []TrackDef
}

// Class is a class definition with single inheritance.  Its slot layout
// is fixed at Define: all holds the inherited attributes first, then the
// class's own, in declaration order, so a subclass keeps every inherited
// attribute at its superclass's slot and an object stores its values in
// one slice indexed the same way.
type Class struct {
	name  string
	super *Class
	attrs []AttrDef
	all   []AttrDef
	slots map[string]int // attribute name → index into all
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Super returns the superclass, or nil.
func (c *Class) Super() *Class { return c.super }

// Attrs returns all attributes, inherited first, in declaration order:
// the class's slot layout.
func (c *Class) Attrs() []AttrDef { return append([]AttrDef(nil), c.all...) }

// Attr looks an attribute up by name, inherited or own.
func (c *Class) Attr(name string) (AttrDef, bool) {
	i, ok := c.slots[name]
	if !ok {
		return AttrDef{}, false
	}
	return c.all[i], true
}

// Slot returns the attribute's index in the class's slot layout, the
// same in every subclass.
func (c *Class) Slot(name string) (int, bool) {
	i, ok := c.slots[name]
	return i, ok
}

// IsSubclassOf reports whether c is o or a descendant of o.
func (c *Class) IsSubclassOf(o *Class) bool {
	for k := c; k != nil; k = k.super {
		if k == o {
			return true
		}
	}
	return false
}

// String returns the class name.
func (c *Class) String() string { return c.name }

// Schema is a registry of class definitions.
type Schema struct {
	mu      sync.RWMutex
	classes map[string]*Class
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{classes: make(map[string]*Class)}
}

// Define registers a class.  superName may be empty for a root class.
// Attribute names must be unique across the whole inheritance chain —
// shadowing an inherited attribute is an error, not an override.
func (s *Schema) Define(name, superName string, attrs []AttrDef) (*Class, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: empty class name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.classes[name]; dup {
		return nil, fmt.Errorf("schema: class %q already defined", name)
	}
	var super *Class
	if superName != "" {
		var ok bool
		super, ok = s.classes[superName]
		if !ok {
			return nil, fmt.Errorf("schema: superclass %q of %q not defined", superName, name)
		}
	}
	var all []AttrDef
	if super != nil {
		all = append(all, super.all...)
	}
	slots := make(map[string]int, len(all)+len(attrs))
	for i, a := range all {
		slots[a.Name] = i
	}
	for _, a := range attrs {
		if err := validateAttr(a); err != nil {
			return nil, fmt.Errorf("schema: class %q: %w", name, err)
		}
		if _, dup := slots[a.Name]; dup {
			return nil, fmt.Errorf("schema: class %q: duplicate attribute %q", name, a.Name)
		}
		slots[a.Name] = len(all)
		all = append(all, a)
	}
	c := &Class{name: name, super: super, attrs: append([]AttrDef(nil), attrs...), all: all, slots: slots}
	s.classes[name] = c
	return c, nil
}

func validateAttr(a AttrDef) error {
	if a.Name == "" {
		return fmt.Errorf("attribute without a name")
	}
	switch a.Kind {
	case KindString, KindInt, KindFloat, KindBool, KindDate:
		if len(a.Tracks) != 0 {
			return fmt.Errorf("attribute %q: tracks on a scalar attribute", a.Name)
		}
	case KindMedia:
		if !a.VideoQuality.IsZero() {
			if a.MediaKind != media.KindVideo {
				return fmt.Errorf("attribute %q: video quality on %v attribute", a.Name, a.MediaKind)
			}
			if !a.VideoQuality.Valid() {
				return fmt.Errorf("attribute %q: invalid quality %v", a.Name, a.VideoQuality)
			}
		}
		if a.AudioQuality != media.AudioQualityUnspecified && a.MediaKind != media.KindAudio {
			return fmt.Errorf("attribute %q: audio quality on %v attribute", a.Name, a.MediaKind)
		}
	case KindTComp:
		if len(a.Tracks) == 0 {
			return fmt.Errorf("attribute %q: tcomp without tracks", a.Name)
		}
		names := make(map[string]bool)
		for _, tr := range a.Tracks {
			if tr.Name == "" {
				return fmt.Errorf("attribute %q: unnamed track", a.Name)
			}
			if names[tr.Name] {
				return fmt.Errorf("attribute %q: duplicate track %q", a.Name, tr.Name)
			}
			names[tr.Name] = true
		}
	default:
		return fmt.Errorf("attribute %q: unknown kind %v", a.Name, a.Kind)
	}
	return nil
}

// Class returns the class with the given name.
func (s *Schema) Class(name string) (*Class, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.classes[name]
	return c, ok
}

// Classes returns all class names, sorted.
func (s *Schema) Classes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.classes))
	for n := range s.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
