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

// TaskScheduleFromNetwork builds the whole-model task schedule by
// folding the intermittent job schedule: one task covers a whole
// (output-column tile × k-panel) group — every surviving block row of
// one k-block, the unit the input-stationary loop naturally brackets —
// so a new task starts at every op that fetches an input tile. Within a
// task, outputs accumulate in VM; the task's outputs and loop indices
// are written back only when it completes, so the write stream cannot
// overlap the task's compute (SerialWrite). A failure inside a task
// loses the whole task: RefetchBytes covers all its operands. Fully
// pruned k-panels have no ops and so no task.
//
// Each returned Op therefore *is* one task; the CostSim executes task
// schedules unchanged.
func TaskScheduleFromNetwork(net *nn.Network, specs []tile.LayerSpec, cfg tile.Config) []Op {
	var tasks []Op
	for _, op := range ScheduleFromNetwork(net, specs, tile.Intermittent, cfg) {
		if op.InputRead > 0 {
			tasks = append(tasks, Op{
				Layer: op.Layer, InputRead: op.InputRead,
				IndWrite: taskIndicatorBytes, SerialWrite: true,
			})
		}
		task := &tasks[len(tasks)-1]
		task.MACs += op.MACs
		task.Jobs += op.Jobs
		task.WeightRead += op.WeightRead
		task.OutWrite += op.OutWrite
		task.RefetchBytes = task.WeightRead + task.InputRead + task.OutWrite
	}
	return tasks
}
