"""The model zoo: scaled-down versions of the networks the paper evaluates.

The paper traces training of AlexNet, VGG16, ResNet-50, DenseNet-121,
SqueezeNet (ImageNet classification), img2txt (scene understanding /
captioning), SNLI (natural-language inference), two pruned-while-training
ResNet-50 variants (DS90 and SM90) and GCN (a gated convolutional language
model with virtually no sparsity).  Full ImageNet-scale training is not
feasible here, so each model is reproduced at reduced width/depth while
preserving the architectural features that determine operand sparsity:
ReLU placement, batch-normalisation placement (DenseNet), residual
connections (ResNet), concatenation (DenseNet/SqueezeNet), dropout
(AlexNet/VGG) and gated linear units without ReLU (GCN).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "build_alexnet": "repro.models.alexnet",
    "build_vgg16": "repro.models.vgg",
    "build_resnet50": "repro.models.resnet",
    "build_densenet121": "repro.models.densenet",
    "build_squeezenet": "repro.models.squeezenet",
    "build_img2txt": "repro.models.img2txt",
    "build_snli": "repro.models.snli",
    "build_gcn": "repro.models.gcn",
    "ModelSpec": "repro.models.registry",
    "MODEL_REGISTRY": "repro.models.registry",
    "build_model": "repro.models.registry",
    "build_dataset": "repro.models.registry",
    "available_models": "repro.models.registry",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
