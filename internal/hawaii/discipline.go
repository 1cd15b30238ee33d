package hawaii

import (
	"iprune/internal/nn"
	"iprune/internal/tile"
)

// The paper's Section I contrasts two progress-preservation designs:
// HAWAII footprints every accelerator output with a job counter (fine
// granularity, minimal re-execution), while SONIC/TAILS preserves at
// task granularity — loop indices saved when an atomic task finishes,
// with the whole interrupted task re-executed after a failure. This file
// models the task-level discipline so the trade-off can be simulated
// and benchmarked against the job-level engine the rest of the package
// implements.

// taskIndicatorBytes is the progress indicator of a task-level runtime:
// a handful of loop indices rather than one job counter.
const taskIndicatorBytes = 16

// BuildTaskSchedule lowers a layer into atomic tasks: one task covers a
// whole (output-column tile × k-panel) group — every surviving block row
// of one k-block, the unit the input-stationary loop naturally brackets.
// Within a task, outputs accumulate in VM; the task's outputs and loop
// indices are written back only when it completes, so the write stream
// cannot overlap the task's compute (SerialWrite). A failure inside a
// task loses the whole task: RefetchBytes covers all its operands.
//
// Each returned Op therefore *is* one task; the CostSim executes task
// schedules unchanged.
func BuildTaskSchedule(spec *tile.LayerSpec, mask *nn.BlockMask, cfg tile.Config) []Op {
	if err := checkMask(spec, mask); err != nil {
		panic(err.Error())
	}
	eb := int64(cfg.ElemBytes)
	brs := (spec.M + spec.TM - 1) / spec.TM
	bcs := (spec.K + spec.TK - 1) / spec.TK
	nTiles := (spec.N + spec.TN - 1) / spec.TN
	keep := func(br, bc int) bool {
		return mask == nil || mask.Keep[br*bcs+bc]
	}
	var tasks []Op
	for j := 0; j < nTiles; j++ {
		tn := min(spec.TN, spec.N-j*spec.TN)
		for bc := 0; bc < bcs; bc++ {
			kk := min(spec.TK, spec.K-bc*spec.TK)
			var task Op
			task.Layer = spec.Index
			task.SerialWrite = true
			rows := 0
			for br := 0; br < brs; br++ {
				if !keep(br, bc) {
					continue
				}
				rm := min(spec.TM, spec.M-br*spec.TM)
				rows += rm
				task.MACs += int64(rm) * int64(kk) * int64(tn)
				task.Jobs += int64(rm) * int64(tn)
				task.WeightRead += int64(rm) * int64(kk) * eb
			}
			if rows == 0 {
				continue // fully pruned k-panel: no task at all
			}
			task.InputRead = int64(kk) * int64(tn) * eb
			task.OutWrite = int64(rows) * int64(tn) * eb
			task.IndWrite = taskIndicatorBytes
			task.RefetchBytes = task.WeightRead + task.InputRead + task.OutWrite
			tasks = append(tasks, task)
		}
	}
	return tasks
}

// TaskScheduleFromNetwork builds the whole-model task schedule.
func TaskScheduleFromNetwork(net *nn.Network, specs []tile.LayerSpec, cfg tile.Config) []Op {
	prunables := net.Prunables()
	var tasks []Op
	for i := range specs {
		tasks = append(tasks, BuildTaskSchedule(&specs[i], prunables[i].Mask(), cfg)...)
	}
	return tasks
}
