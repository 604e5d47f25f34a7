package main

import (
	"bytes"
	"fmt"
	"image"
	"image/jpeg"
	"image/png"

	"rtoss/internal/kitti"
	"rtoss/internal/rng"
	"rtoss/internal/tensor"
)

// gen.go makes every input the program under test sees, from the seed
// alone: the same seed gives byte-identical inputs, another seed does
// not. The program receives only these bytes.

const (
	yoloSceneW, yoloSceneH = 640, 192  // YOLO workload sources
	httpSceneW, httpSceneH = 1242, 375 // KITTI's native frame size
	distinctScenes         = 16
	streamLoopFrames       = 60
)

// input is one encoded image with the codec it was encoded in.
type input struct {
	Codec string // "ppm", "png" or "jpeg"
	Data  []byte
}

// frameInputs are the still scenes of the two frame workloads.
func frameInputs(seed uint64) ([]input, error) {
	return encodeAll(kitti.RenderedDataset(seed, distinctScenes, yoloSceneW, yoloSceneH), "ppm")
}

// streamInputs is the moving-scene loop every stream session replays.
func streamInputs(seed uint64) ([]input, error) {
	return encodeAll(kitti.RenderedSequence(seed, streamLoopFrames, yoloSceneW, yoloSceneH), "ppm")
}

// httpInputs encodes each scene in all three codecs and orders the
// scene×codec pairs by a seeded permutation, so requests mix codecs and
// scenes without a fixed rhythm.
func httpInputs(seed uint64) ([]input, error) {
	scenes := kitti.RenderedDataset(seed, distinctScenes, httpSceneW, httpSceneH)
	var all []input
	for _, codec := range []string{"ppm", "png", "jpeg"} {
		ins, err := encodeAll(scenes, codec)
		if err != nil {
			return nil, err
		}
		all = append(all, ins...)
	}
	out := make([]input, len(all))
	for i, j := range rng.New(seed).Perm(len(all)) {
		out[i] = all[j]
	}
	return out, nil
}

func encodeAll(scenes []kitti.RenderedScene, codec string) ([]input, error) {
	out := make([]input, len(scenes))
	for i, s := range scenes {
		data, err := encode(s.Image, codec)
		if err != nil {
			return nil, fmt.Errorf("encoding scene %d as %s: %w", i, codec, err)
		}
		out[i] = input{Codec: codec, Data: data}
	}
	return out, nil
}

func encode(img *tensor.Tensor, codec string) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch codec {
	case "ppm":
		err = tensor.EncodePPM(&buf, img)
	case "png":
		err = png.Encode(&buf, toNRGBA(img))
	case "jpeg":
		err = jpeg.Encode(&buf, toNRGBA(img), &jpeg.Options{Quality: 95})
	default:
		err = fmt.Errorf("unknown codec %q", codec)
	}
	return buf.Bytes(), err
}

// toNRGBA converts a [3, H, W] tensor in [0, 1] to 8 bits per channel
// for the standard-library encoders.
func toNRGBA(t *tensor.Tensor) *image.NRGBA {
	h, w := t.Dim(1), t.Dim(2)
	img := image.NewNRGBA(image.Rect(0, 0, w, h))
	plane := h * w
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*img.Stride + 4*x
			for c := 0; c < 3; c++ {
				img.Pix[i+c] = uint8(t.Data[c*plane+y*w+x]*255 + 0.5)
			}
			img.Pix[i+3] = 255
		}
	}
	return img
}
