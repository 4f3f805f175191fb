package battery

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrUnknownModel is wrapped by New for names no model registered under.
var ErrUnknownModel = errors.New("battery: unknown model")

var (
	registryMu sync.RWMutex
	registry   = map[string]func() Model{}
)

// Register makes a battery model constructor available under name. Model
// sub-packages self-register from an init function (the image/png pattern),
// so importing a model package is all it takes to make battery.New, the
// experiment drivers' -battery flags and the scenario grid accept its name.
// Register panics on an empty name, a nil factory or a duplicate name.
func Register(name string, factory func() Model) {
	if name == "" {
		panic("battery: Register with empty model name")
	}
	if factory == nil {
		panic(fmt.Sprintf("battery: Register(%q) with nil factory", name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("battery: Register(%q) called twice", name))
	}
	registry[name] = factory
}

// New returns a fresh instance of the model registered under name (battery
// models are stateful, so every simulation needs its own). Unknown names
// return Factory's error.
func New(name string) (Model, error) {
	factory, err := Factory(name)
	if err != nil {
		return nil, err
	}
	return factory(), nil
}

// Factory returns the constructor registered under name, without building a
// model. Unknown names return an error wrapping ErrUnknownModel that lists
// the registered names.
func Factory(name string) (func() Model, error) {
	registryMu.RLock()
	factory, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownModel, name, strings.Join(Names(), ", "))
	}
	return factory, nil
}

// Names returns the registered model names in sorted order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
