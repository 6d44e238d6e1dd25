// Package core implements the paper's primary contribution: the
// policy-based security modelling and enforcement approach. It glues the
// substrates together end to end:
//
//	use case + threats --Analyze--> rated analysis (STRIDE + DREAD)
//	                   --Derive--->  security model: guidelines AND policies
//	policies --Compile--> per-node approved lists --Install--> HPE (hardware)
//	                   --DeriveMAC--> type-enforcement module   (software)
//	OEM --Sign--> policy bundle --Distribute--> Device.ApplyUpdate (hot swap)
//
// The OEM/Device pair models the post-deployment update mechanism of
// §V-A.2: a new threat is countered by shipping a signed policy bundle
// instead of redesigning the product.
package core

import (
	"crypto/ed25519"
	"fmt"
	"io"

	"repro/internal/canbus"
	"repro/internal/hpe"
	"repro/internal/mac"
	"repro/internal/policy"
	"repro/internal/threatmodel"
)

// SecurityModel is the end product of the Fig. 1 modelling process, carrying
// both countermeasure styles so they can be compared.
type SecurityModel struct {
	// Analysis is the rated threat analysis.
	Analysis *threatmodel.Analysis
	// Guidelines is the traditional guideline document (baseline).
	Guidelines *threatmodel.GuidelineModel
	// Policies is the enforceable policy set (the contribution).
	Policies *policy.Set
	// Restrictions is the per-threat Table I policy column.
	Restrictions []threatmodel.Restriction
}

// BuildModel runs the modelling pipeline end to end: analysis, guideline
// derivation and policy derivation.
func BuildModel(uc threatmodel.UseCase, threats []threatmodel.Threat, policyName string, version uint64) (*SecurityModel, error) {
	analysis, err := threatmodel.Analyze(uc, threats)
	if err != nil {
		return nil, err
	}
	set, err := threatmodel.DerivePolicies(analysis, policyName, version)
	if err != nil {
		return nil, err
	}
	return &SecurityModel{
		Analysis:     analysis,
		Guidelines:   threatmodel.DeriveGuidelines(analysis),
		Policies:     set,
		Restrictions: threatmodel.Restrictions(analysis),
	}, nil
}

// OEM holds the manufacturer's signing identity and issues policy bundles.
type OEM struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewOEM generates a signing identity from the given entropy source
// (crypto/rand.Reader in production, a deterministic reader in tests).
func NewOEM(entropy io.Reader) (*OEM, error) {
	pub, priv, err := ed25519.GenerateKey(entropy)
	if err != nil {
		return nil, fmt.Errorf("core: generating OEM key: %w", err)
	}
	return &OEM{priv: priv, pub: pub}, nil
}

// PublicKey returns the verification key devices are provisioned with.
func (o *OEM) PublicKey() ed25519.PublicKey { return o.pub }

// Issue signs a policy set into a distributable bundle.
func (o *OEM) Issue(set *policy.Set) (*policy.Bundle, error) {
	return policy.Sign(set.String(), o.priv)
}

// Device is the fielded endpoint: a policy store plus the per-node hardware
// policy engines, kept in sync by the store's update subscription. Until a
// policy is installed every engine fails closed.
type Device struct {
	store   *policy.Store
	engines map[string]*hpe.Engine
}

// Provision creates engines on every listed node of the bus and wires them
// to a policy store trusting the OEM's public key. No policy is installed
// yet; call ApplyUpdate with an OEM-issued bundle.
func Provision(bus *canbus.Bus, modes hpe.ModeSource, oemKey ed25519.PublicKey, subjects []string, deviceModes []policy.Mode) (*Device, error) {
	store := policy.NewStore(oemKey, policy.CompileOptions{
		Subjects: subjects,
		Modes:    deviceModes,
	})
	d := &Device{store: store, engines: make(map[string]*hpe.Engine, len(subjects))}
	cycles := hpe.DefaultCycleModel()
	for _, name := range subjects {
		node, ok := bus.Node(name)
		if !ok {
			return nil, fmt.Errorf("core: node %q not attached", name)
		}
		eng := hpe.New(name, modes, cycles)
		node.SetInlineFilter(eng)
		d.engines[name] = eng
	}
	store.Subscribe(func(installed *policy.Compiled) {
		for _, eng := range d.engines {
			// Install cannot fail for a non-nil compiled policy.
			_ = eng.Install(installed)
		}
	})
	return d, nil
}

// ApplyUpdate verifies and installs a policy bundle, refreshing every
// engine through the store subscription. It runs on the car's goroutine,
// like the engines it refreshes: between scheduler runs, or from a
// scheduled event (a Scheduler().At callback). Every engine decision after
// it uses the new policy; a frame queued before it keeps its old write
// verdict and meets the new read lists on delivery.
func (d *Device) ApplyUpdate(b *policy.Bundle) error {
	_, err := d.store.Apply(b)
	return err
}

// PolicyVersion returns the installed policy version (0 before install).
func (d *Device) PolicyVersion() uint64 {
	if s := d.store.CurrentSet(); s != nil {
		return s.Version
	}
	return 0
}

// FleetVehicle adapts a provisioned Device to the fleet.Vehicle interface
// so OEM-side staged rollouts (internal/fleet) can drive real devices. A
// bundle whose version the device already runs counts as success, making
// re-runs of a partially completed rollout idempotent.
type FleetVehicle struct {
	// VID is the vehicle identifier (VIN).
	VID string
	// Dev is the provisioned device.
	Dev *Device
}

// ID implements fleet.Vehicle.
func (v FleetVehicle) ID() string { return v.VID }

// Apply implements fleet.Vehicle.
func (v FleetVehicle) Apply(b *policy.Bundle) error {
	if v.Dev.PolicyVersion() >= b.Version {
		return nil // already current
	}
	return v.Dev.ApplyUpdate(b)
}

// MACClassCAN is the object class used by the derived software module.
const MACClassCAN mac.Class = "can_message"

// MAC permissions for the derived module.
const (
	MACPermRead  mac.Permission = "read"
	MACPermWrite mac.Permission = "write"
)

// SubjectType returns the SELinux-style domain type for a node.
func SubjectType(subject string) string { return "node_" + subject + "_t" }

// MessageType returns the SELinux-style type labelling a message ID.
func MessageType(id uint32) string { return fmt.Sprintf("can_msg_%03x_t", id) }

// DeriveMACModule renders the same least-privilege matrix as a software
// type-enforcement module (§V-B.1: SELinux-based policy enforcement). Each
// communication requirement becomes one allow rule from the node's domain
// to the message's type.
func DeriveMACModule(a *threatmodel.Analysis, name string, version uint64) (*mac.Module, error) {
	m := &mac.Module{Name: name, Version: version}
	for _, c := range a.UseCase.Comm {
		var perms []mac.Permission
		if c.Action.Has(policy.ActRead) {
			perms = append(perms, MACPermRead)
		}
		if c.Action.Has(policy.ActWrite) {
			perms = append(perms, MACPermWrite)
		}
		ids, err := c.IDs.Enumerate(policy.TableLimit)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			m.Rules = append(m.Rules, mac.AllowRule{
				SourceType: SubjectType(c.Subject),
				TargetType: MessageType(id),
				Class:      MACClassCAN,
				Perms:      perms,
			})
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MACContext builds the runtime security context for a node's application.
func MACContext(subject string) mac.Context {
	return mac.Context{User: "system_u", Role: "object_r", Type: SubjectType(subject)}
}

// MessageContext builds the security context labelling a message ID.
func MessageContext(id uint32) mac.Context {
	return mac.Context{User: "system_u", Role: "object_r", Type: MessageType(id)}
}
