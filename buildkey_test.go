package repro

import (
	"reflect"
	"testing"
)

// TestBuildKeyCoversConfig pins the build cache key to the semantic
// config: setting any Config field (recursing into the machine model)
// to a non-zero value changes the key, so no request is answered from a
// build compiled without one of its options — verification and
// hardening included — while Workers, a scheduling knob, leaves the key
// alone. Walking the fields by reflection keeps the check exhaustive as
// Config grows.
func TestBuildKeyCoversConfig(t *testing.T) {
	const src = "func main() { print(1); }"
	key := func(cfg Config) [32]byte {
		t.Helper()
		k, ok := buildKey(src, cfg)
		if !ok {
			t.Fatalf("no key for %+v", cfg)
		}
		return k
	}
	base := key(Config{})
	if k, _ := buildKey(src+" ", Config{}); k == base {
		t.Error("the source is not in the key")
	}

	var walk func(typ reflect.Type, index []int, path string)
	walk = func(typ reflect.Type, index []int, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			name := path + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx, name+".")
				continue
			}
			var cfg Config
			v := reflect.ValueOf(&cfg).Elem().FieldByIndex(idx)
			switch f.Type.Kind() {
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Int, reflect.Int64:
				v.SetInt(3)
			case reflect.Float64:
				v.SetFloat(0.5)
			case reflect.String:
				v.SetString("fence")
			case reflect.Slice:
				v.Set(reflect.MakeSlice(f.Type, 1, 1))
				if e := v.Index(0); e.CanInt() {
					e.SetInt(7)
				} else {
					e.SetUint(7) // ProfileJSON
				}
			case reflect.Map:
				v.Set(reflect.ValueOf(map[string]FnSpec{"main": {Spec: SpecCost}}))
			default:
				t.Fatalf("%s: no sample value for kind %s; extend the test", name, f.Type.Kind())
			}
			changed := key(cfg) != base
			if want := name != "Workers"; changed != want {
				t.Errorf("%s: key changed = %v, want %v", name, changed, want)
			}
		}
	}
	walk(reflect.TypeOf(Config{}), nil, "")

	// per-function tiers are keyed by their content, not just presence
	a := key(Config{FnSpec: map[string]FnSpec{"main": {Spec: SpecCost}}})
	b := key(Config{FnSpec: map[string]FnSpec{"main": {Spec: SpecCost, SpecThreshold: 2}}})
	if a == b {
		t.Error("FnSpec threshold is not in the key")
	}
}
