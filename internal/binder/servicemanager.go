package binder

import (
	"fmt"
	"sort"
	"sync"
)

// ServiceManager is the userspace registry mapping service names to Binder
// node references, reachable from every process through handle 0. Flux's
// CRIA restore path asks the guest device's ServiceManager for equivalent
// services by name when re-binding a migrated app's handles.
type ServiceManager struct {
	driver *Driver
	node   *Node

	mu    sync.Mutex
	names map[string]*Node
}

// ServiceManager transaction codes, used when addressed via handle 0.
const (
	SMGetService uint32 = iota + 1
	SMAddService
	SMListServices
)

func newServiceManager(d *Driver) *ServiceManager {
	sm := &ServiceManager{driver: d, names: make(map[string]*Node)}
	// The ServiceManager's own node is owned by a synthetic pid-0 process
	// so it survives any app exiting.
	owner := &Proc{
		driver:     d,
		pid:        0,
		name:       "servicemanager",
		nextHandle: 1,
		handles:    make(map[Handle]*ref),
		owned:      make(map[NodeID]*Node),
	}
	d.procs[0] = owner
	sm.node = &Node{id: d.nextNodeID, owner: owner, svc: sm, descr: "android.os.IServiceManager"}
	d.nextNodeID++
	d.nodes[sm.node.id] = sm.node
	owner.owned[sm.node.id] = sm.node
	return sm
}

// Register publishes a node under name. Re-registering a name replaces the
// previous binding, which is how a rebooted system service takes over.
func (sm *ServiceManager) Register(name string, node *Node) error {
	if node == nil {
		return fmt.Errorf("binder: registering nil node for %q", name)
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	sm.names[name] = node
	return nil
}

// Lookup returns the node registered under name, or nil.
func (sm *ServiceManager) Lookup(name string) *Node {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.names[name]
}

// NameOf returns the registration name of node, or "" if it is not a
// registered system service. A node registered under several names
// resolves to the smallest, so the answer never depends on map order.
// CRIA uses this to classify a handle as a system-service reference and to
// record the name for guest-side rebinding.
func (sm *ServiceManager) NameOf(node *Node) string {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	found := ""
	for name, n := range sm.names {
		if n == node && (found == "" || name < found) {
			found = name
		}
	}
	return found
}

// Names returns all registered service names, sorted.
func (sm *ServiceManager) Names() []string {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	out := make([]string, 0, len(sm.names))
	for name := range sm.names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// dropNodeLocked removes any registrations for a dying node. The driver
// mutex is held by the caller; the ServiceManager has its own lock.
func (sm *ServiceManager) dropNodeLocked(n *Node) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for name, have := range sm.names {
		if have == n {
			delete(sm.names, name)
		}
	}
}

// Transact implements the Transactor interface so the ServiceManager is
// addressable through handle 0 like the real context manager.
func (sm *ServiceManager) Transact(call *Call) error {
	switch call.Code {
	case SMGetService:
		name, err := call.Data.ReadString()
		if err != nil {
			return err
		}
		node := sm.Lookup(name)
		if node == nil {
			call.Reply.WriteBool(false)
			return nil
		}
		// Write the handle in the ServiceManager's own space; the driver
		// translates reply handles into the caller's space uniformly.
		h, err := sm.node.owner.Ref(node)
		if err != nil {
			return err
		}
		call.Reply.WriteBool(true)
		call.Reply.WriteHandle(h)
		return nil
	case SMAddService:
		name, err := call.Data.ReadString()
		if err != nil {
			return err
		}
		h, err := call.Data.ReadHandle()
		if err != nil {
			return err
		}
		// The driver has already translated the embedded handle into the
		// ServiceManager owner's handle space.
		node, err := sm.node.owner.Node(h)
		if err != nil {
			return err
		}
		return sm.Register(name, node)
	case SMListServices:
		for _, name := range sm.Names() {
			call.Reply.WriteString(name)
		}
		return nil
	default:
		return fmt.Errorf("binder: servicemanager: unknown code %d", call.Code)
	}
}

// GetService is the client-side convenience used throughout the framework:
// resolve name through the caller's handle-0 reference, returning a handle
// in the caller's table.
func GetService(p *Proc, name string) (Handle, error) {
	data := NewParcel()
	data.WriteString(name)
	reply, err := p.Transact(ContextManagerHandle, SMGetService, data)
	if err != nil {
		return 0, err
	}
	ok, err := reply.ReadBool()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("binder: service %q not found", name)
	}
	return reply.ReadHandle()
}

// AddService publishes svc under name from process p, returning the node.
func AddService(p *Proc, name, descr string, svc Transactor) (*Node, error) {
	node, err := p.Publish(descr, svc)
	if err != nil {
		return nil, err
	}
	h, err := p.Ref(node)
	if err != nil {
		return nil, err
	}
	data := NewParcel()
	data.WriteString(name)
	data.WriteHandle(h)
	if _, err := p.Transact(ContextManagerHandle, SMAddService, data); err != nil {
		return nil, err
	}
	return node, nil
}
