package tensor_test

import (
	"bytes"
	"image"
	"image/jpeg"
	"image/png"
	"io"
	"testing"

	"rtoss/internal/kitti"
	"rtoss/internal/tensor"
)

// BenchmarkDecodeKITTIFrame compares the in-repo decoders with the
// standard library's on one rendered synthetic-KITTI frame at the
// dataset's 1242x375 geometry, encoded as the benchmark's HTTP workload
// encodes it: JPEG at quality 95, and PNG. The in-repo side decodes
// into a retained tensor, as the serving executor does; the stdlib side
// is Decode alone, so its figures leave out the copy into a tensor that
// serving would add.
func BenchmarkDecodeKITTIFrame(b *testing.B) {
	src := toNRGBA(kitti.RenderedDataset(1, 1, 1242, 375)[0].Image)
	var jpg, pngBuf bytes.Buffer
	if err := jpeg.Encode(&jpg, src, &jpeg.Options{Quality: 95}); err != nil {
		b.Fatal(err)
	}
	if err := png.Encode(&pngBuf, src); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		std  func(io.Reader) (image.Image, error)
	}{
		{"jpeg-q95", jpg.Bytes(), jpeg.Decode},
		{"png", pngBuf.Bytes(), png.Decode},
	} {
		b.Run(c.name+"/in-repo", func(b *testing.B) {
			dst, err := tensor.DecodeImageInto(nil, c.data)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = tensor.DecodeImageInto(dst, c.data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/stdlib", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.std(bytes.NewReader(c.data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// toNRGBA quantises a [3, H, W] tensor in [0, 1] to an opaque 8-bit
// image for the standard-library encoders.
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
