package experiments

import "time"

// SmallTable4Config is the two-session shrunk Table 4 workload shared by the
// unit tests and the scenario DSL's `table4` command: User A reboots halfway
// through, User B spends half the run offline so part of their backlog ages
// past the 24 h purge. Keeping the shape in one place means the txtar-scripted
// run and the direct experiments run are the same experiment by construction.
func SmallTable4Config(seed int64, days int) Table4Config {
	dur := time.Duration(days) * 24 * time.Hour
	return Table4Config{
		Seed: seed, Days: days,
		Sessions: []SessionConfig{
			{User: "User A", DeviceID: "devA", Duration: dur, Seed: 201,
				Faults: []Fault{{Kind: FaultReboot, At: dur / 2}}},
			{User: "User B", DeviceID: "devB", Duration: dur, Seed: 202,
				Faults: []Fault{{Kind: FaultOffline, At: dur / 4, Until: dur * 7 / 8}}},
		},
	}
}
