"""macforge: unsupervised fine-tuning of convolutional descriptors for
image retrieval on synthetic multi-view scenes.

The library covers the full loop: a small trainable convolutional
trunk, MAC and regional-MAC pooling, contrastive or triplet training
with hard-example mining from 3D visibility graphs, discriminative and
PCA whitening, and mAP evaluation with pixel- or activation-space
query crops. The macforge CLI chains the stages; each module also
stands alone.
"""
