"""weckd: a chained knowledge-distillation training engine.

Three classifiers trained sequentially on disjoint 10% data subsets, each
student learning from hard labels plus its frozen predecessor's
temperature-softened predictions, with an attention-augmented CNN backbone
and TPE hyperparameter search.
"""
import ctypes
import os

# A training step's conv and pool ops run their images in blocks, and an
# inference pass its row tiles, one block per CPU on its own thread, so BLAS
# gets one thread per call: kernel threads of its own would compete with the
# blocks for the same cores. This holds only when numpy is first imported after
# this line; a variable already set in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Every training step allocates and frees the same arrays, some of them larger
# than glibc's default mmap threshold, and a backward sweep frees its graph as
# it goes. By default glibc maps each large array fresh and hands freed heap
# back to the kernel, so every step faults its pages in again. Serving arrays
# up to 32 MiB (glibc's 64-bit ceiling) from the heap and never trimming it
# keeps freed pages for the next allocation. Where glibc's mallopt is missing
# this does nothing; a threshold already set through the environment is kept.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # no mallopt, or no handle on the C library
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # (mallopt parameter from glibc's malloc.h, its name in the environment, value)
    for _param, _name, _value in ((-3, "MMAP_THRESHOLD", 32 << 20), (-1, "TRIM_THRESHOLD", -1)):
        if (f"MALLOC_{_name}_" not in os.environ
                and f"glibc.malloc.{_name.lower()}" not in os.environ.get("GLIBC_TUNABLES", "")):
            _mallopt(_param, _value)

from .backbone import BackboneConfig, Model, build_model
from .data import DatasetSplit, LabeledDataset, generate_synthetic, load_idx, partition, write_idx
from .losses import DistillParams, anneal_temperature, ce_loss, hybrid_loss, kd_loss, softmax_temperature
from .metrics import confusion_matrix, prf1, roc_auc_ovr, theory_report
from .tpe import SearchSpace, TrialRecord, run_study, suggest
from .training import ChainResult, StageResult, TrainConfig, load_checkpoint, run_chain, save_checkpoint

__version__ = "0.1.0"
