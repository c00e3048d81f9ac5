"""weckd: a chained knowledge-distillation training engine.

Three classifiers trained sequentially on disjoint 10% data subsets, each
student learning from hard labels plus its frozen predecessor's
temperature-softened predictions, with an attention-augmented CNN backbone
and TPE hyperparameter search.
"""
import os

# A training step's conv and pool ops run their images in blocks, and an
# inference pass its row tiles, one block per CPU on its own thread, so BLAS
# gets one thread per call: kernel threads of its own would compete with the
# blocks for the same cores. This holds only when numpy is first imported after
# this line; a variable already set in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .backbone import BackboneConfig, Model, build_model
from .data import DatasetSplit, LabeledDataset, generate_synthetic, load_idx, partition, write_idx
from .losses import DistillParams, anneal_temperature, ce_loss, hybrid_loss, kd_loss, softmax_temperature
from .metrics import confusion_matrix, prf1, roc_auc_ovr, theory_report
from .tpe import SearchSpace, TrialRecord, run_study, suggest
from .training import ChainResult, StageResult, TrainConfig, load_checkpoint, run_chain, save_checkpoint

__version__ = "0.1.0"
