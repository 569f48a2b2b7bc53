package sqlengine

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"gsn/internal/stream"
)

// ScalarFunc is a registered scalar SQL function. Implementations
// receive already-evaluated arguments and must handle NULLs.
type ScalarFunc func(args []stream.Value, ev *evaluator) (stream.Value, error)

// scalarFuncs is the built-in function library. Names are upper-case.
// The set covers what GSN descriptors in the wild use: math, string
// manipulation and NULL handling, plus NOW() for temporal predicates.
var scalarFuncs = map[string]ScalarFunc{
	"ABS": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("ABS", args, 1); err != nil {
			return nil, err
		}
		switch x := args[0].(type) {
		case nil:
			return nil, nil
		case int64:
			if x < 0 {
				return -x, nil
			}
			return x, nil
		case float64:
			return math.Abs(x), nil
		}
		return nil, fmt.Errorf("sqlengine: ABS of non-numeric %T", args[0])
	},
	"SIGN": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("SIGN", args, 1); err != nil {
			return nil, err
		}
		f, ok := toFloat(args[0])
		if args[0] == nil {
			return nil, nil
		}
		if !ok {
			return nil, fmt.Errorf("sqlengine: SIGN of non-numeric %T", args[0])
		}
		switch {
		case f > 0:
			return int64(1), nil
		case f < 0:
			return int64(-1), nil
		default:
			return int64(0), nil
		}
	},
	"ROUND": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if len(args) != 1 && len(args) != 2 {
			return nil, fmt.Errorf("sqlengine: ROUND takes 1 or 2 arguments, got %d", len(args))
		}
		if args[0] == nil {
			return nil, nil
		}
		f, ok := toFloat(args[0])
		if !ok {
			return nil, fmt.Errorf("sqlengine: ROUND of non-numeric %T", args[0])
		}
		digits := int64(0)
		if len(args) == 2 {
			if args[1] == nil {
				return nil, nil
			}
			d, ok := args[1].(int64)
			if !ok {
				return nil, fmt.Errorf("sqlengine: ROUND digits must be integer")
			}
			digits = d
		}
		scale := math.Pow10(int(digits))
		return math.Round(f*scale) / scale, nil
	},
	"FLOOR": numericUnary("FLOOR", math.Floor),
	"CEIL":  numericUnary("CEIL", math.Ceil),
	"SQRT": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("SQRT", args, 1); err != nil {
			return nil, err
		}
		if args[0] == nil {
			return nil, nil
		}
		f, ok := toFloat(args[0])
		if !ok || f < 0 {
			return nil, fmt.Errorf("sqlengine: SQRT of invalid value %v", args[0])
		}
		return math.Sqrt(f), nil
	},
	"POWER": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("POWER", args, 2); err != nil {
			return nil, err
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		a, ok1 := toFloat(args[0])
		b, ok2 := toFloat(args[1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sqlengine: POWER of non-numeric arguments")
		}
		return math.Pow(a, b), nil
	},
	"MOD": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("MOD", args, 2); err != nil {
			return nil, err
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		a, ok1 := args[0].(int64)
		b, ok2 := args[1].(int64)
		if ok1 && ok2 {
			if b == 0 {
				return nil, nil
			}
			return a % b, nil
		}
		af, ok1 := toFloat(args[0])
		bf, ok2 := toFloat(args[1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sqlengine: MOD of non-numeric arguments")
		}
		if bf == 0 {
			return nil, nil
		}
		return math.Mod(af, bf), nil
	},
	"UPPER": stringUnary("UPPER", strings.ToUpper),
	"LOWER": stringUnary("LOWER", strings.ToLower),
	"TRIM":  stringUnary("TRIM", strings.TrimSpace),
	"LTRIM": stringUnary("LTRIM", func(s string) string { return strings.TrimLeft(s, " \t\r\n") }),
	"RTRIM": stringUnary("RTRIM", func(s string) string { return strings.TrimRight(s, " \t\r\n") }),
	"LENGTH": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("LENGTH", args, 1); err != nil {
			return nil, err
		}
		switch x := args[0].(type) {
		case nil:
			return nil, nil
		case string:
			return int64(len(x)), nil
		case []byte:
			return int64(len(x)), nil
		}
		return nil, fmt.Errorf("sqlengine: LENGTH of %T", args[0])
	},
	"SUBSTR": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("sqlengine: SUBSTR takes 2 or 3 arguments, got %d", len(args))
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sqlengine: SUBSTR of %T", args[0])
		}
		start, ok := args[1].(int64)
		if !ok {
			return nil, fmt.Errorf("sqlengine: SUBSTR start must be integer")
		}
		// SQL is 1-based; clamp out-of-range.
		idx := int(start) - 1
		if idx < 0 {
			idx = 0
		}
		if idx > len(s) {
			idx = len(s)
		}
		out := s[idx:]
		if len(args) == 3 {
			if args[2] == nil {
				return nil, nil
			}
			n, ok := args[2].(int64)
			if !ok || n < 0 {
				return nil, fmt.Errorf("sqlengine: SUBSTR length must be a non-negative integer")
			}
			if int(n) < len(out) {
				out = out[:n]
			}
		}
		return out, nil
	},
	"CONCAT": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		var b strings.Builder
		for _, a := range args {
			if a == nil {
				return nil, nil
			}
			b.WriteString(stream.FormatValue(a))
		}
		return b.String(), nil
	},
	"REPLACE": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("REPLACE", args, 3); err != nil {
			return nil, err
		}
		if args[0] == nil || args[1] == nil || args[2] == nil {
			return nil, nil
		}
		s, ok1 := args[0].(string)
		from, ok2 := args[1].(string)
		to, ok3 := args[2].(string)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("sqlengine: REPLACE wants string arguments")
		}
		return strings.ReplaceAll(s, from, to), nil
	},
	"COALESCE": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		for _, a := range args {
			if a != nil {
				return a, nil
			}
		}
		return nil, nil
	},
	"IFNULL": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("IFNULL", args, 2); err != nil {
			return nil, err
		}
		if args[0] != nil {
			return args[0], nil
		}
		return args[1], nil
	},
	"NULLIF": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("NULLIF", args, 2); err != nil {
			return nil, err
		}
		if stream.ValuesEqual(args[0], args[1]) {
			return nil, nil
		}
		return args[0], nil
	},
	"GREATEST": extremum("GREATEST", 1),
	"LEAST":    extremum("LEAST", -1),
	"NOW": func(args []stream.Value, ev *evaluator) (stream.Value, error) {
		if err := wantArgs("NOW", args, 0); err != nil {
			return nil, err
		}
		return ev.now(), nil
	},
	// Temporal helpers over TIMED-style millisecond timestamps: GSN
	// queries manipulate time attributes directly in SQL (paper §3).
	"FROM_MILLIS": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("FROM_MILLIS", args, 1); err != nil {
			return nil, err
		}
		if args[0] == nil {
			return nil, nil
		}
		ms, ok := args[0].(int64)
		if !ok {
			return nil, fmt.Errorf("sqlengine: FROM_MILLIS wants an integer timestamp")
		}
		return stream.Timestamp(ms).String(), nil
	},
	"HOUR":   timePart("HOUR", func(t time.Time) int64 { return int64(t.Hour()) }),
	"MINUTE": timePart("MINUTE", func(t time.Time) int64 { return int64(t.Minute()) }),
	"SECOND": timePart("SECOND", func(t time.Time) int64 { return int64(t.Second()) }),
	// Digest/encoding helpers (the original GSN leaned on MySQL's MD5
	// and HEX for payload fingerprinting in notifications).
	"MD5": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("MD5", args, 1); err != nil {
			return nil, err
		}
		b, err := toBytes("MD5", args[0])
		if err != nil || b == nil {
			return nil, err
		}
		sum := md5.Sum(b)
		return hex.EncodeToString(sum[:]), nil
	},
	"HEX": func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs("HEX", args, 1); err != nil {
			return nil, err
		}
		b, err := toBytes("HEX", args[0])
		if err != nil || b == nil {
			return nil, err
		}
		return strings.ToUpper(hex.EncodeToString(b)), nil
	},
}

// toBytes converts a string or byte value for digest functions; nil
// stays nil.
func toBytes(name string, v stream.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return nil, nil
	case string:
		return []byte(x), nil
	case []byte:
		return x, nil
	default:
		return nil, fmt.Errorf("sqlengine: %s wants a string or binary value, got %T", name, v)
	}
}

func timePart(name string, part func(time.Time) int64) ScalarFunc {
	return func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs(name, args, 1); err != nil {
			return nil, err
		}
		if args[0] == nil {
			return nil, nil
		}
		ms, ok := args[0].(int64)
		if !ok {
			return nil, fmt.Errorf("sqlengine: %s wants an integer timestamp", name)
		}
		return part(stream.Timestamp(ms).Time()), nil
	}
}

func wantArgs(name string, args []stream.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("sqlengine: %s takes %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

func numericUnary(name string, f func(float64) float64) ScalarFunc {
	return func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs(name, args, 1); err != nil {
			return nil, err
		}
		if args[0] == nil {
			return nil, nil
		}
		x, ok := toFloat(args[0])
		if !ok {
			return nil, fmt.Errorf("sqlengine: %s of non-numeric %T", name, args[0])
		}
		return f(x), nil
	}
}

func stringUnary(name string, f func(string) string) ScalarFunc {
	return func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if err := wantArgs(name, args, 1); err != nil {
			return nil, err
		}
		if args[0] == nil {
			return nil, nil
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sqlengine: %s of %T", name, args[0])
		}
		return f(s), nil
	}
}

func extremum(name string, want int) ScalarFunc {
	return func(args []stream.Value, _ *evaluator) (stream.Value, error) {
		if len(args) == 0 {
			return nil, fmt.Errorf("sqlengine: %s needs at least one argument", name)
		}
		best := args[0]
		for _, a := range args[1:] {
			if a == nil || best == nil {
				return nil, nil
			}
			c, ok, err := compare(a, best)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, nil
			}
			if c == want {
				best = a
			}
		}
		return best, nil
	}
}

// IsScalarFunc reports whether name (upper-case) is a registered scalar
// function. The container uses this to validate descriptors at deploy
// time.
func IsScalarFunc(name string) bool {
	_, ok := scalarFuncs[name]
	return ok
}
