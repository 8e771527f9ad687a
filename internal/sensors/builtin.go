package sensors

import (
	"sort"
	"time"

	"pogo/internal/energy"
	"pogo/internal/msg"
)

// Channel names of the built-in sensors, as used by the paper's scripts.
const (
	ChannelBattery  = "battery"
	ChannelWifiScan = "wifi-scan"
	channelLocation = "location"
)

// BatterySource supplies battery readings; *android.Device implements it.
type BatterySource interface {
	BatteryVoltage() float64
	BatteryLevel() float64
}

// NewBatterySensor returns the battery sensor: it samples voltage and charge
// level and publishes on the "battery" channel. Default interval 60 s
// (the Table 3 experiment samples once per minute).
func NewBatterySensor(mgr *Manager, src BatterySource) Sensor {
	s := &batterySensor{src: src}
	s.periodicCore = periodicCore{
		mgr:     mgr,
		channel: ChannelBattery,
		def:     time.Minute,
		min:     time.Second,
		sample:  s.doSample,
	}
	return s
}

type batterySensor struct {
	periodicCore
	src BatterySource
}

func (s *batterySensor) doSample() {
	now := s.mgr.clock().Now()
	s.mgr.publish(ChannelBattery, msg.Map{
		"voltage":   s.src.BatteryVoltage(),
		"level":     s.src.BatteryLevel(),
		"timestamp": float64(now.UnixMilli()),
	})
}

// AccessPoint is one Wi-Fi scan result entry.
type AccessPoint struct {
	BSSID string
	SSID  string
	// RSSI in dBm (e.g. -62).
	RSSI float64
	// LocallyAdministered access points (soft APs, tethering) are noise the
	// scan.js script filters out (§4.1).
	LocallyAdministered bool
}

// Message converts the access point to its wire representation.
func (a AccessPoint) Message() msg.Map {
	return msg.Map{
		"bssid": a.BSSID,
		"ssid":  a.SSID,
		"rssi":  a.RSSI,
		"local": a.LocallyAdministered,
	}
}

// WifiScanner supplies scan results; internal/env's device views implement
// it.
type WifiScanner interface {
	ScanWifi() []AccessPoint
}

// WifiScanConfig sets the scan sensor's cost model.
type WifiScanConfig struct {
	// ScanDuration is how long a scan takes (the paper: 1–2 s; the CPU must
	// stay awake for its completion, hence the scheduler's wake lock).
	ScanDuration time.Duration
	// ScanPower is the radio draw while scanning, in watts.
	ScanPower float64
	// Meter receives the scan power; may be nil.
	Meter *energy.Meter
}

func (c WifiScanConfig) withDefaults() WifiScanConfig {
	if c.ScanDuration == 0 {
		c.ScanDuration = 1500 * time.Millisecond
	}
	if c.ScanPower == 0 {
		c.ScanPower = 0.5
	}
	return c
}

// NewWifiScanSensor returns the Wi-Fi access point scan sensor publishing on
// "wifi-scan". Default interval 60 s, matching the localization application.
func NewWifiScanSensor(mgr *Manager, scanner WifiScanner, cfg WifiScanConfig) Sensor {
	s := &wifiScanSensor{scanner: scanner, cfg: cfg.withDefaults()}
	s.periodicCore = periodicCore{
		mgr:     mgr,
		channel: ChannelWifiScan,
		def:     time.Minute,
		min:     5 * time.Second,
		sample:  s.doSample,
	}
	return s
}

type wifiScanSensor struct {
	periodicCore
	scanner WifiScanner
	cfg     WifiScanConfig
}

func (s *wifiScanSensor) doSample() {
	// The scan is asynchronous: power is drawn for ScanDuration, then the
	// results are published. The scheduler task wraps this in a wake lock
	// via After, so the CPU stays awake for the completion (§4.5).
	if s.cfg.Meter != nil {
		s.cfg.Meter.Add("wifi-scan", s.cfg.ScanPower)
	}
	s.mgr.scheduler().After(s.cfg.ScanDuration, "wifi-scan-done", func() {
		if s.cfg.Meter != nil {
			s.cfg.Meter.Add("wifi-scan", -s.cfg.ScanPower)
		}
		aps := s.scanner.ScanWifi()
		list := make([]msg.Value, 0, len(aps))
		for _, ap := range aps {
			list = append(list, ap.Message())
		}
		s.mgr.publish(ChannelWifiScan, msg.Map{
			"aps":       list,
			"timestamp": float64(s.mgr.clock().Now().UnixMilli()),
		})
	})
}

// Position is a geographic fix with its provider.
type Position struct {
	Lat, Lon float64
	// Provider is "GPS" or "NETWORK".
	Provider string
	// Accuracy radius in meters.
	Accuracy float64
}

// LocationSource supplies position fixes per provider.
type LocationSource interface {
	Location(provider string) (Position, bool)
}

// NewLocationSensor returns the location sensor publishing on "location".
// Subscribers may restrict the provider with the {provider: "GPS"} parameter
// (§4.3); with mixed demand the sensor samples every requested provider.
func NewLocationSensor(mgr *Manager, src LocationSource) Sensor {
	s := &locationSensor{src: src}
	s.periodicCore = periodicCore{
		mgr:     mgr,
		channel: channelLocation,
		def:     time.Minute,
		min:     time.Second,
		sample:  s.doSample,
	}
	return s
}

type locationSensor struct {
	periodicCore
	src LocationSource
}

func (s *locationSensor) doSample() {
	providers := map[string]bool{}
	for _, sub := range s.mgr.subscriptions(channelLocation) {
		if p := msg.GetString(sub.Params, "provider"); p != "" {
			providers[p] = true
		} else {
			providers["NETWORK"] = true
		}
	}
	if len(providers) == 0 {
		providers["NETWORK"] = true
	}
	now := float64(s.mgr.clock().Now().UnixMilli())
	ordered := make([]string, 0, len(providers))
	for p := range providers {
		ordered = append(ordered, p)
	}
	sort.Strings(ordered)
	for _, p := range ordered {
		pos, ok := s.src.Location(p)
		if !ok {
			continue
		}
		s.mgr.publish(channelLocation, msg.Map{
			"lat":       pos.Lat,
			"lon":       pos.Lon,
			"provider":  pos.Provider,
			"accuracy":  pos.Accuracy,
			"timestamp": now,
		})
	}
}
