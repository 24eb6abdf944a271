package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"sort"
)

// digest is a canonical content hash of any result value: every field
// reached through structs, slices, arrays, pointers, maps and
// interfaces, unexported ones included, with floats hashed by their bit
// patterns. Two results digest equally exactly when they are equal bit
// for bit, which is the check every workload's outputs must pass.
func digest(v any) [32]byte { return hashValue(reflect.ValueOf(v)) }

func hashValue(root reflect.Value) [32]byte {
	h := sha256.New()
	var buf [8]byte
	var walk func(v reflect.Value)
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	walk = func(v reflect.Value) {
		word(uint64(v.Kind()))
		switch v.Kind() {
		case reflect.Invalid:
		case reflect.Bool:
			if v.Bool() {
				word(1)
			} else {
				word(0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			word(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			word(v.Uint())
		case reflect.Float32, reflect.Float64:
			word(math.Float64bits(v.Float()))
		case reflect.Complex64, reflect.Complex128:
			c := v.Complex()
			word(math.Float64bits(real(c)))
			word(math.Float64bits(imag(c)))
		case reflect.String:
			word(uint64(v.Len()))
			h.Write([]byte(v.String()))
		case reflect.Slice, reflect.Array:
			word(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				word(0)
				return
			}
			word(1)
			if v.Kind() == reflect.Interface {
				h.Write([]byte(v.Elem().Type().String()))
			}
			walk(v.Elem())
		case reflect.Map:
			// Map order is random: hash each entry on its own and feed
			// the sorted entry hashes.
			entries := make([][32]byte, 0, v.Len())
			for it := v.MapRange(); it.Next(); {
				k, e := hashValue(it.Key()), hashValue(it.Value())
				entries = append(entries, sha256.Sum256(append(k[:], e[:]...)))
			}
			sort.Slice(entries, func(i, j int) bool {
				return string(entries[i][:]) < string(entries[j][:])
			})
			word(uint64(len(entries)))
			for _, e := range entries {
				h.Write(e[:])
			}
		default:
			// Funcs and channels carry no result data.
		}
	}
	walk(root)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
