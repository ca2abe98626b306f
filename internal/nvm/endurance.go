package nvm

import "fmt"

// This file covers the paper's §2.3 background machinery that the main
// experiments only imply: the NVM interface-generation ladder behind the
// §3.3 bus exploration, and endurance/lifetime accounting for the
// wear-limited media ("PCM offers 10^3 to 10^5 times better endurance than
// NAND flash").

// BusLadder returns the interface generations from early ONFi to the
// paper's proposed DDR3-1600-like future bus, in chronological order.
func BusLadder() []BusParams {
	return []BusParams{
		{Name: "ONFi1-SDR-50", ClockMHz: 50, DDR: false, WidthBits: 8},
		{Name: "ONFi2-DDR-133", ClockMHz: 133, DDR: true, WidthBits: 8},
		ONFi3SDR(),
		{Name: "ONFi3-DDR-400", ClockMHz: 400, DDR: true, WidthBits: 8},
		FutureDDR(),
	}
}

// Lifetime estimates how long a device of the given capacity survives a
// sustained host write rate, accounting for the FTL's write amplification:
//
//	years = capacity × endurance / (dailyWrites × writeAmp × 365)
//
// A writeAmp of 1 means UFS-style host-managed writes with no relocation.
func Lifetime(cell CellParams, capacityBytes, dailyWriteBytes int64, writeAmp float64) (years float64, err error) {
	if capacityBytes <= 0 || dailyWriteBytes <= 0 {
		return 0, fmt.Errorf("nvm: lifetime needs positive capacity and write volume")
	}
	if writeAmp < 1 {
		return 0, fmt.Errorf("nvm: write amplification %v below 1", writeAmp)
	}
	totalWritable := float64(capacityBytes) * float64(cell.Endurance)
	perYear := float64(dailyWriteBytes) * writeAmp * 365
	return totalWritable / perYear, nil
}
