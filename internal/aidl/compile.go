package aidl

import (
	"fmt"

	"flux/internal/binder"
)

// Rule is the compiled record/replay rule for one decorated method. The
// Selective Record engine evaluates rules online as the app calls services;
// Adaptive Replay consults ReplayProxy when replaying the pruned log.
type Rule struct {
	Interface   string
	Method      string
	Code        uint32
	DropMethods []string
	Signatures  [][]string
	ReplayProxy string
}

// DropsSelf reports whether the rule's drop list contains "this", meaning a
// signature match also suppresses recording of the triggering call.
func (r Rule) DropsSelf() bool { return dropsSelf(r.DropMethods) }

func dropsSelf(dropMethods []string) bool {
	for _, m := range dropMethods {
		if m == "this" {
			return true
		}
	}
	return false
}

// Rules compiles the decorated methods of itf into record rules, in
// declaration order.
func Rules(itf *Interface) []Rule {
	var out []Rule
	for _, m := range itf.Methods {
		if m.Record == nil {
			continue
		}
		out = append(out, Rule{
			Interface:   itf.Name,
			Method:      m.Name,
			Code:        m.Code,
			DropMethods: append([]string(nil), m.Record.DropMethods...),
			Signatures:  append([][]string(nil), m.Record.Signatures...),
			ReplayProxy: m.Record.ReplayProxy,
		})
	}
	return out
}

// Object is an opaque parcelable value — a Notification, PendingIntent,
// Intent, and so on. The simulation represents parcelables by their
// canonical serialized form; equality of Objects is exactly the identity
// the paper's @if signatures compare (e.g. the PendingIntent `operation`
// argument of IAlarmManager.set and .remove).
type Object string

// MarshalCallArgs validates args against the method signature and builds
// the request parcel. Each parameter occupies exactly one parcel entry, so
// parameter index == parcel entry index, which ArgString relies on.
func MarshalCallArgs(m *Method, args ...any) (*binder.Parcel, error) {
	if len(args) != len(m.Params) {
		return nil, fmt.Errorf("aidl: %s takes %d args, got %d", m.Name, len(m.Params), len(args))
	}
	p := binder.NewParcel()
	for i, param := range m.Params {
		if err := marshalArg(p, param, args[i]); err != nil {
			return nil, fmt.Errorf("aidl: %s arg %d (%s): %w", m.Name, i, param.Name, err)
		}
	}
	return p, nil
}

func marshalArg(p *binder.Parcel, param Param, arg any) error {
	switch param.Type {
	case TypeInt:
		v, ok := toInt64(arg)
		if !ok {
			return fmt.Errorf("want int, got %T", arg)
		}
		p.WriteInt32(int32(v))
	case TypeLong:
		v, ok := toInt64(arg)
		if !ok {
			return fmt.Errorf("want long, got %T", arg)
		}
		p.WriteInt64(v)
	case TypeFloat:
		switch v := arg.(type) {
		case float64:
			p.WriteFloat64(v)
		case float32:
			p.WriteFloat64(float64(v))
		default:
			return fmt.Errorf("want float, got %T", arg)
		}
	case TypeBool:
		v, ok := arg.(bool)
		if !ok {
			return fmt.Errorf("want boolean, got %T", arg)
		}
		p.WriteBool(v)
	case TypeString:
		v, ok := arg.(string)
		if !ok {
			return fmt.Errorf("want String, got %T", arg)
		}
		p.WriteString(v)
	case TypeBytes:
		v, ok := arg.([]byte)
		if !ok {
			return fmt.Errorf("want byte[], got %T", arg)
		}
		p.WriteBytes(v)
	case TypeParcelable:
		switch v := arg.(type) {
		case Object:
			p.WriteString(string(v))
		case string:
			p.WriteString(v)
		default:
			return fmt.Errorf("want aidl.Object, got %T", arg)
		}
	case TypeBinder:
		v, ok := arg.(binder.Handle)
		if !ok {
			return fmt.Errorf("want binder.Handle, got %T", arg)
		}
		p.WriteHandle(v)
	case TypeFD:
		v, ok := arg.(int)
		if !ok {
			return fmt.Errorf("want fd int, got %T", arg)
		}
		p.WriteFD(v)
	default:
		return fmt.Errorf("unmarshalable parameter type %v", param.Type)
	}
	return nil
}

func toInt64(arg any) (int64, bool) {
	switch v := arg.(type) {
	case int:
		return int64(v), true
	case int32:
		return int64(v), true
	case int64:
		return v, true
	case uint32:
		return int64(v), true
	}
	return 0, false
}

// ArgString extracts the canonical string form of the named argument from a
// request parcel, for @if signature comparison. Handles and fds are
// rendered with their numeric value; the recorder normalizes them before
// comparison if needed.
func ArgString(m *Method, data *binder.Parcel, argName string) (string, error) {
	_, idx := m.Param(argName)
	if idx < 0 {
		return "", fmt.Errorf("aidl: %s has no parameter %s", m.Name, argName)
	}
	return data.EntryString(idx)
}

// Client is the app-side stub of a compiled interface bound to a Binder
// handle, the analogue of an AIDL-generated Proxy class.
type Client struct {
	Itf    *Interface
	Proc   *binder.Proc
	Handle binder.Handle
}

// NewClient resolves name through the ServiceManager and binds a client.
func NewClient(itf *Interface, proc *binder.Proc, name string) (*Client, error) {
	h, err := binder.GetService(proc, name)
	if err != nil {
		return nil, err
	}
	return &Client{Itf: itf, Proc: proc, Handle: h}, nil
}

// Call invokes method with args, returning the reply parcel. Methods
// declared oneway transact asynchronously and return a nil reply.
func (c *Client) Call(method string, args ...any) (*binder.Parcel, error) {
	m := c.Itf.Method(method)
	if m == nil {
		return nil, fmt.Errorf("aidl: interface %s has no method %s", c.Itf.Name, method)
	}
	data, err := MarshalCallArgs(m, args...)
	if err != nil {
		return nil, err
	}
	if m.OneWay {
		return nil, c.Proc.TransactOneWay(c.Handle, m.Code, data)
	}
	return c.Proc.Transact(c.Handle, m.Code, data)
}

// Dispatcher is the service-side stub, the analogue of an AIDL-generated
// Stub class: it resolves transaction codes to methods and invokes the
// registered handler.
type Dispatcher struct {
	Itf      *Interface
	handlers map[string]Handler
}

// Handler implements one service method. The call's Data parcel is
// positioned at the first argument.
type Handler func(call *binder.Call, m *Method) error

// NewDispatcher creates an empty dispatcher for itf.
func NewDispatcher(itf *Interface) *Dispatcher {
	return &Dispatcher{Itf: itf, handlers: make(map[string]Handler)}
}

// Handle registers the implementation of a method; unknown names panic at
// service construction time rather than failing at call time.
func (d *Dispatcher) Handle(method string, h Handler) *Dispatcher {
	if d.Itf.Method(method) == nil {
		panic(fmt.Sprintf("aidl: interface %s has no method %s", d.Itf.Name, method))
	}
	d.handlers[method] = h
	return d
}

// Transact implements binder.Transactor.
func (d *Dispatcher) Transact(call *binder.Call) error {
	m := d.Itf.MethodByCode(call.Code)
	if m == nil {
		return fmt.Errorf("aidl: %s: unknown transaction code %d", d.Itf.Name, call.Code)
	}
	h, ok := d.handlers[m.Name]
	if !ok {
		return fmt.Errorf("aidl: %s.%s not implemented", d.Itf.Name, m.Name)
	}
	return h(call, m)
}
