"""Desk-scale lab for realizable continual linear regression under random orderings."""

from .adversarial import any_alg_lb_collection, seen_task_lb_collection
from .harness import (ExperimentConfig, RateFit, ResultTable, aggregate, fit_rate,
                      parse_config, run_experiment, write_csv)
from .metrics import (MetricsRecord, average_loss, excess_loss, loss_degradation,
                      seen_task_loss, summarize, summarize_batch, task_loss)
from .orderings import sample_ordering, stream
from .schedules import (CertificateReport, ScheduleSpec, certificate_check,
                        custom_schedule, fixed_budget, fixed_coefficient,
                        increasing_budget, increasing_coefficient)
from .schemes import (BatchRun, Trajectory, budgeted_step, igd_step,
                      regularized_step, run_batch, run_continual,
                      unregularized_step)
from .surrogates import (SurrogateQuadratic, build_budgeted_surrogate,
                         build_regularized_surrogate, build_spectral_surrogate,
                         from_matrix, sandwich_check, spectral_multiplier, value_and_grad)
from .tasks import (RegressionTask, RowBases, TaskCollection, TaskStack,
                    generate_aligned_pairs, generate_realizable, min_norm_solution,
                    new_collection, new_task, stacked_collection)
from .verify import verify_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
