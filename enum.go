package pmsnet

import (
	"fmt"
	"strings"
)

// enumTable is the name table behind each public enum (Switching,
// EvictionPolicy, Fabric, Scheduler, Planner). The values of every such
// enum run from 0 without gaps, so names[v] is value v's canonical name, and
// the table order is the flag-vocabulary order. String, the *Names
// vocabularies, Parse* and Config.Validate all read the one table.
type enumTable[T ~int] struct {
	typeName  string   // Go type name, for String's out-of-range form "Fabric(9)"
	parseNoun string   // what a Parse* error calls the enum: "switching paradigm"
	checkNoun string   // what a ConfigError reason calls it: "paradigm"
	names     []string // canonical names, indexed by value
}

// name returns v's canonical name, or "Type(v)" for a value outside the
// table.
func (e *enumTable[T]) name(v T) string {
	if v >= 0 && int(v) < len(e.names) {
		return e.names[v]
	}
	return fmt.Sprintf("%s(%d)", e.typeName, int(v))
}

// vocabulary returns a copy of the canonical names in table order.
func (e *enumTable[T]) vocabulary() []string {
	return append([]string(nil), e.names...)
}

// parse maps a canonical name back to its value. Unknown names produce an
// error listing every valid name.
func (e *enumTable[T]) parse(name string) (T, error) {
	for i, n := range e.names {
		if n == name {
			return T(i), nil
		}
	}
	return 0, fmt.Errorf("pmsnet: unknown %s %q (valid: %s)",
		e.parseNoun, name, strings.Join(e.names, ", "))
}

// check returns a *ConfigError on field when v is outside the table, and
// nil otherwise.
func (e *enumTable[T]) check(field string, v T) error {
	if v >= 0 && int(v) < len(e.names) {
		return nil
	}
	return &ConfigError{Field: field, Value: int(v),
		Reason: fmt.Sprintf("unknown %s (valid: %s)", e.checkNoun, strings.Join(e.names, ", "))}
}
