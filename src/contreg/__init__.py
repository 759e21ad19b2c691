"""Desk-scale lab for realizable continual linear regression under random orderings."""

from .adversarial import AdversarialScenario, any_alg_lb_collection, seen_task_lb_collection
from .harness import (ExperimentConfig, RateFit, ResultRow, aggregate, fit_rate,
                      load_config, parse_config, run_experiment, verify_suite,
                      write_csv)
from .metrics import (MetricsRecord, average_loss, excess_loss, loss_degradation,
                      seen_task_loss, summarize, summarize_batch, task_loss)
from .orderings import sample_ordering, stream
from .schedules import (CertificateReport, ScheduleSpec, certificate_check,
                        custom_schedule, fixed_budget, fixed_coefficient,
                        increasing_budget, increasing_coefficient,
                        linear_decay_steps)
from .schemes import (BatchRun, Trajectory, budgeted_step, igd_step,
                      regularized_step, run_batch, run_continual,
                      unregularized_step)
from .surrogates import (SurrogateQuadratic, build_budgeted_surrogate,
                         build_regularized_surrogate, build_spectral_surrogate,
                         from_matrix, sandwich_check, value_and_grad)
from .tasks import (RealizableSpec, RegressionTask, RowBases, TaskCollection,
                    generate_aligned_pairs, generate_realizable,
                    min_norm_solution, new_collection, new_task)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
